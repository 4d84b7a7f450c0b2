package parallel

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mlpa/internal/ckpt"
	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
)

// StateCache caches functional-machine architectural states at
// instruction boundaries of one program, so concurrent simulation
// points fast-forwarding past the same prefix share the work instead
// of redoing it. Entries are ckpt.State restore images captured with
// an all-live live-in mask (every register, every dirty page), so a
// cached state is exact, not scrubbed. They are created single-flight:
// when several workers ask for the same instruction position at once,
// exactly one executes the fast-forward and the rest wait for its
// state.
//
// The cache is keyed by instruction count alone. A machine's
// architectural state at instruction N is a pure function of (program,
// memory size, N) — it does not depend on the microarchitectural
// configuration the caller will simulate the point under — so one
// cache serves every cpu.Config, which is what lets Table II's config
// A and B sweeps reuse each other's fast-forwards.
//
// A build for position N starts from the nearest already-completed
// entry at or below N (falling back to the initial state), so a plan's
// sorted points naturally chain: each point's worker extends the
// deepest prefix any earlier worker has published.
type StateCache struct {
	p        *prog.Program
	memWords int64

	// Metrics, when non-nil, receives counter parallel.state_cache.hits
	// (waits on an existing entry), counter parallel.state_cache.misses
	// (builds), counter parallel.state_cache.ff_insts (instructions
	// actually fast-forwarded by builds) and gauge
	// parallel.state_cache.bytes (estimated encoded footprint).
	metrics *obs.Registry

	mu      sync.Mutex
	entries map[uint64]*stateEntry
	keys    []uint64 // sorted positions with an entry (ready or in flight)
	bytes   int64
}

type stateEntry struct {
	done  chan struct{}
	state *ckpt.State
	err   error
}

func (e *stateEntry) ready() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// NewStateCache creates an empty cache for p. memWords, if positive,
// fixes the data-memory size of the machines the cache materializes
// (the same value callers would pass emu.New); reg may be nil.
func NewStateCache(p *prog.Program, memWords int64, reg *obs.Registry) *StateCache {
	return &StateCache{
		p:        p,
		memWords: memWords,
		metrics:  reg,
		entries:  make(map[uint64]*stateEntry),
	}
}

// StateAt returns the machine state at instruction pos (committed-
// instruction count). Position 0 is the initial state. The state is
// shared by every caller and must not be mutated; materialize it with
// ckpt.State.NewMachine or RestoreInto. An error is returned if the
// program halts before pos or ctx is cancelled while fast-forwarding.
func (c *StateCache) StateAt(ctx context.Context, pos uint64) (*ckpt.State, error) {
	c.mu.Lock()
	if e, ok := c.entries[pos]; ok {
		c.mu.Unlock()
		c.metrics.Counter("parallel.state_cache.hits").Inc()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return e.state, e.err
	}
	e := &stateEntry{done: make(chan struct{})}
	c.entries[pos] = e
	c.insertKey(pos)
	base := c.nearestReadyBelowLocked(pos)
	c.mu.Unlock()
	c.metrics.Counter("parallel.state_cache.misses").Inc()

	e.state, e.err = c.build(ctx, base, pos)
	close(e.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		// A cancelled or failed build must not poison the position for
		// future callers (a retry with a live context should succeed):
		// drop the entry.
		delete(c.entries, pos)
		c.removeKey(pos)
		return nil, e.err
	}
	c.bytes += int64(e.state.EncodedBytes())
	c.metrics.Gauge("parallel.state_cache.bytes").Set(float64(c.bytes))
	return e.state, nil
}

// MachineAt returns an independent machine positioned exactly at
// instruction pos: the state StateAt returns, restored into a fresh
// machine. The machine is the caller's to mutate.
func (c *StateCache) MachineAt(ctx context.Context, pos uint64) (*emu.Machine, error) {
	st, err := c.StateAt(ctx, pos)
	if err != nil {
		return nil, err
	}
	return c.restore(st)
}

// build fast-forwards from base (nil = initial state) to pos and
// captures the state there.
func (c *StateCache) build(ctx context.Context, base *ckpt.State, pos uint64) (*ckpt.State, error) {
	m, err := c.restore(base)
	if err != nil {
		return nil, err
	}
	ffed, err := m.RunTo(ctx, pos)
	if err != nil {
		return nil, fmt.Errorf("parallel: %s: %w", c.p.Name, err)
	}
	c.metrics.Counter("parallel.state_cache.ff_insts").Add(int64(ffed))
	return ckpt.Capture(m, 0, sampling.LiveIn{PC: m.PC, Int: ^uint32(0), FP: ^uint32(0), Mem: true})
}

// restore returns a fresh machine positioned at st, or at the initial
// state when st is nil.
func (c *StateCache) restore(st *ckpt.State) (*emu.Machine, error) {
	m := emu.New(c.p, c.memWords)
	if st == nil {
		return m, nil
	}
	if err := st.RestoreInto(m); err != nil {
		return nil, fmt.Errorf("parallel: restore cached state: %w", err)
	}
	return m, nil
}

// nearestReadyBelowLocked returns the state of the deepest completed
// entry at or below pos, or nil. Caller holds mu.
func (c *StateCache) nearestReadyBelowLocked(pos uint64) *ckpt.State {
	i := sort.Search(len(c.keys), func(i int) bool { return c.keys[i] > pos })
	for i--; i >= 0; i-- {
		if e := c.entries[c.keys[i]]; e != nil && e.ready() && e.err == nil {
			return e.state
		}
	}
	return nil
}

func (c *StateCache) insertKey(pos uint64) {
	i := sort.Search(len(c.keys), func(i int) bool { return c.keys[i] >= pos })
	c.keys = append(c.keys, 0)
	copy(c.keys[i+1:], c.keys[i:])
	c.keys[i] = pos
}

func (c *StateCache) removeKey(pos uint64) {
	i := sort.Search(len(c.keys), func(i int) bool { return c.keys[i] >= pos })
	if i < len(c.keys) && c.keys[i] == pos {
		c.keys = append(c.keys[:i], c.keys[i+1:]...)
	}
}

// Program returns the program this cache materializes states for.
func (c *StateCache) Program() *prog.Program { return c.p }

// Bytes returns the estimated encoded footprint of all completed
// entries (ckpt.State.EncodedBytes).
func (c *StateCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of cached (or in-flight) positions.
func (c *StateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
