package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/obs"
	"mlpa/internal/pipeline"
	"mlpa/internal/prog"
	"mlpa/internal/staticanalysis"
)

// Cache dispositions reported in the X-Mlpa-Cache response header.
const (
	dispMiss      = "miss"      // this request executed the computation
	dispCoalesced = "coalesced" // joined an identical in-flight computation
	dispHit       = "hit"       // served from a completed cache entry
)

// resultCache is the content-hash response cache with single-flight
// coalescing: at most one computation runs per key, waiters share its
// outcome, and completed bodies are replayed byte-for-byte. Failed
// computations are delivered to their waiters but never cached, so a
// transient failure (timeout, cancellation) does not poison the key.
type resultCache struct {
	reg *obs.Registry
	max int

	mu      sync.Mutex
	entries map[string]*resultEntry
	order   []string // completed keys in insertion order, for eviction
	bytes   int64
}

type resultEntry struct {
	done chan struct{}
	body []byte
	err  *apiError
}

func newResultCache(max int, reg *obs.Registry) *resultCache {
	return &resultCache{reg: reg, max: max, entries: make(map[string]*resultEntry)}
}

// do returns the response body for key, computing it single-flight.
// The context only governs how long this caller waits on an in-flight
// computation owned by another request; compute itself carries its own
// deadline so a waiter's disconnection never aborts work other waiters
// share.
func (c *resultCache) do(ctx context.Context, key string, compute func() ([]byte, *apiError)) ([]byte, string, *apiError) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		disp := dispCoalesced
		select {
		case <-e.done:
			disp = dispHit
			c.reg.Counter("serve.cache.hits").Inc()
		default:
			c.reg.Counter("serve.cache.coalesced").Inc()
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, disp, &apiError{Status: http.StatusServiceUnavailable, Code: codeTimeout,
				Message: "request expired while waiting for an in-flight identical computation: " + ctx.Err().Error()}
		}
		return e.body, disp, e.err
	}
	e := &resultEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.reg.Counter("serve.cache.misses").Inc()

	e.body, e.err = compute()
	close(e.done)

	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		c.order = append(c.order, key)
		c.bytes += int64(len(e.body))
		c.evictLocked()
		c.reg.Gauge("serve.cache.entries").Set(float64(len(c.entries)))
		c.reg.Gauge("serve.cache.bytes").Set(float64(c.bytes))
	}
	c.mu.Unlock()
	return e.body, dispMiss, e.err
}

// evictLocked drops the oldest completed entries until the bound
// holds. In-flight entries are never in order, so they survive.
func (c *resultCache) evictLocked() {
	for c.max > 0 && len(c.order) > c.max {
		key := c.order[0]
		c.order = c.order[1:]
		if e, ok := c.entries[key]; ok {
			c.bytes -= int64(len(e.body))
			delete(c.entries, key)
			c.reg.Counter("serve.cache.evictions").Inc()
		}
	}
}

// Checkpoint dispositions reported in the X-Mlpa-Ckpt response header
// (estimate cache misses only: replayed and coalesced responses did no
// checkpoint work).
const (
	ckptBuild = "build" // this request built the plan's checkpoint set
	ckptReuse = "reuse" // the set already existed (or was being built)
)

// ckptCache stores built checkpoint sets under the plan-identity key —
// program content hash plus the plan-determining request fields, the
// config excluded — with single-flight construction: at most one
// builder runs per key and every waiter shares its set. Failed builds
// are not cached. Entries are bounded FIFO like the result cache.
type ckptCache struct {
	reg *obs.Registry
	max int

	mu      sync.Mutex
	entries map[string]*ckptEntry
	order   []string
	bytes   int64
}

type ckptEntry struct {
	done chan struct{}
	set  *ckpt.Set
	err  error
}

func newCkptCache(max int, reg *obs.Registry) *ckptCache {
	return &ckptCache{reg: reg, max: max, entries: make(map[string]*ckptEntry)}
}

// get returns the checkpoint set for key, building it single-flight.
// The disposition is ckptBuild when this caller ran the build and
// ckptReuse when the set already existed or another builder's result
// was shared. The context bounds only this caller's wait on a build in
// flight elsewhere.
func (c *ckptCache) get(ctx context.Context, key string, build func() (*ckpt.Set, error)) (*ckpt.Set, string, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.reg.Counter("serve.ckpt.reuses").Inc()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ckptReuse, fmt.Errorf("waiting for in-flight checkpoint build: %w", ctx.Err())
		}
		return e.set, ckptReuse, e.err
	}
	e := &ckptEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.reg.Counter("serve.ckpt.builds").Inc()

	e.set, e.err = build()
	close(e.done)

	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		c.order = append(c.order, key)
		c.bytes += int64(e.set.ApproxBytes())
		c.evictLocked()
		c.reg.Gauge("serve.ckpt.entries").Set(float64(len(c.entries)))
		c.reg.Gauge("serve.ckpt.bytes").Set(float64(c.bytes))
	}
	c.mu.Unlock()
	return e.set, ckptBuild, e.err
}

func (c *ckptCache) evictLocked() {
	for c.max > 0 && len(c.order) > c.max {
		key := c.order[0]
		c.order = c.order[1:]
		if e, ok := c.entries[key]; ok {
			c.bytes -= int64(e.set.ApproxBytes())
			delete(c.entries, key)
			c.reg.Counter("serve.ckpt.evictions").Inc()
		}
	}
}

// programEntry is one resolved guest program and the expensive state
// shared across every request against it: the canonical *prog.Program
// (whose Aux caches hold predecode, CFG and dataflow) and the memoized
// admission probe. Machine state for estimates comes from the
// checkpoint-set cache, keyed per plan.
type programEntry struct {
	prog *prog.Program
	hash string

	probeOnce sync.Once
	length    uint64
	probeErr  *apiError
}

// measuredLength runs the bounded admission probe once per program:
// preflight verification plus a functional run to completion within
// maxInsts. Plan and estimate requests refuse guests that fail it.
func (e *programEntry) measuredLength(maxInsts uint64) (uint64, *apiError) {
	e.probeOnce.Do(func() {
		if err := staticanalysis.Preflight(e.prog); err != nil {
			e.probeErr = &apiError{Status: http.StatusUnprocessableEntity, Code: codeUnverifiable, Message: err.Error()}
			return
		}
		n, err := pipeline.MeasureLength(e.prog, maxInsts)
		if err != nil {
			e.probeErr = &apiError{Status: http.StatusUnprocessableEntity, Code: codeBudgetExceeded, Message: err.Error()}
			return
		}
		e.length = n
	})
	return e.length, e.probeErr
}

// programCache resolves requests to canonical program entries, keyed
// by content hash (with a benchmark/size shortcut so suite programs
// are not rebuilt per request). Bounded: the oldest entries are
// evicted.
type programCache struct {
	reg *obs.Registry
	max int
	// maxCode bounds the static instruction count of submitted
	// assembly: even purely static analysis is superlinear on
	// pathological control flow, so an untrusted guest's size is
	// capped before any analysis runs. Suite programs are exempt.
	maxCode int

	mu      sync.Mutex
	byHash  map[string]*programEntry
	bySuite map[string]*programEntry
	order   []string // hashes in insertion order
}

func newProgramCache(max, maxCode int, reg *obs.Registry) *programCache {
	return &programCache{
		reg:     reg,
		max:     max,
		maxCode: maxCode,
		byHash:  make(map[string]*programEntry),
		bySuite: make(map[string]*programEntry),
	}
}

// resolve returns the canonical entry for the request's guest program,
// assembling or generating it on first use.
func (pc *programCache) resolve(req Request) (*programEntry, *apiError) {
	if req.Benchmark != "" {
		suiteKey := req.Benchmark + "/" + req.Size
		pc.mu.Lock()
		if e, ok := pc.bySuite[suiteKey]; ok {
			pc.mu.Unlock()
			pc.reg.Counter("serve.programs.reused").Inc()
			return e, nil
		}
		pc.mu.Unlock()
		spec, err := bench.ByName(req.Benchmark)
		if err != nil {
			return nil, badRequest(codeBadField, "%v", err)
		}
		size, serr := parseSize(req.Size)
		if serr != nil {
			return nil, badRequest(codeBadField, "%v", serr)
		}
		p, err := spec.Program(size)
		if err != nil {
			return nil, &apiError{Status: http.StatusUnprocessableEntity, Code: codeBadProgram, Message: err.Error()}
		}
		return pc.intern(p, suiteKey), nil
	}
	p, err := prog.Assemble(req.Name, req.Assembly)
	if err != nil {
		return nil, badRequest(codeBadProgram, "assembling %q: %v", req.Name, err)
	}
	if pc.maxCode > 0 && len(p.Code) > pc.maxCode {
		return nil, &apiError{Status: http.StatusUnprocessableEntity, Code: codeProgramTooBig,
			Message: fmt.Sprintf("program has %d instructions, limit %d", len(p.Code), pc.maxCode)}
	}
	return pc.intern(p, ""), nil
}

// intern dedupes p by content hash, registering it (and the suite
// shortcut, when given) on first sight. Concurrent first sights race
// benignly: one entry wins, the loser's program is garbage.
func (pc *programCache) intern(p *prog.Program, suiteKey string) *programEntry {
	hash := progHash(p)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.byHash[hash]
	if !ok {
		e = &programEntry{prog: p, hash: hash}
		pc.byHash[hash] = e
		pc.order = append(pc.order, hash)
		pc.evictLocked()
		pc.reg.Gauge("serve.programs.cached").Set(float64(len(pc.byHash)))
	} else {
		pc.reg.Counter("serve.programs.reused").Inc()
	}
	if suiteKey != "" {
		pc.bySuite[suiteKey] = e
	}
	return e
}

func (pc *programCache) evictLocked() {
	for pc.max > 0 && len(pc.order) > pc.max {
		hash := pc.order[0]
		pc.order = pc.order[1:]
		if victim, ok := pc.byHash[hash]; ok {
			delete(pc.byHash, hash)
			for k, e := range pc.bySuite {
				if e == victim {
					delete(pc.bySuite, k)
				}
			}
			pc.reg.Counter("serve.programs.evicted").Inc()
		}
	}
}
