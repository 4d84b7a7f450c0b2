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
	"mlpa/internal/sampling"
	"mlpa/internal/staticanalysis"
)

// Cache dispositions reported in the X-Mlpa-Cache response header.
const (
	dispMiss      = "miss"      // this request executed the computation
	dispCoalesced = "coalesced" // joined an identical in-flight computation
	dispHit       = "hit"       // served from a completed cache entry
)

// Checkpoint dispositions reported in the X-Mlpa-Ckpt response header
// (estimate cache misses only: replayed and coalesced responses did no
// checkpoint work).
const (
	ckptBuild = "build" // this request built the plan's checkpoint set
	ckptReuse = "reuse" // the set already existed (or was being built)
)

// flightNames are the metric names a flightCache reports under.
type flightNames struct {
	hit, coalesced, miss string // counters, by disposition
	prefix               string // <prefix>.entries, <prefix>.bytes gauges; <prefix>.evictions counter
	wait                 string // what an expired wait was waiting for
}

// flightCache is a bounded single-flight cache: at most one
// computation runs per key, waiters share its outcome, and completed
// values are kept, oldest evicted first, up to max entries. Failed
// computations are delivered to their waiters but never cached, so a
// transient failure (timeout, cancellation) does not poison the key.
type flightCache[V any] struct {
	reg   *obs.Registry
	max   int
	size  func(V) int64
	names flightNames

	mu      sync.Mutex
	entries map[string]*flight[V]
	order   []string // completed keys in insertion order, for eviction
	bytes   int64
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newFlightCache[V any](max int, reg *obs.Registry, size func(V) int64, names flightNames) *flightCache[V] {
	return &flightCache[V]{reg: reg, max: max, size: size, names: names, entries: make(map[string]*flight[V])}
}

// newResultCache is the content-hash response cache: completed bodies
// are replayed byte-for-byte.
func newResultCache(max int, reg *obs.Registry) *flightCache[[]byte] {
	return newFlightCache(max, reg, func(b []byte) int64 { return int64(len(b)) }, flightNames{
		hit: "serve.cache.hits", coalesced: "serve.cache.coalesced", miss: "serve.cache.misses",
		prefix: "serve.cache", wait: "request expired while waiting for an in-flight identical computation",
	})
}

// newPlanCache stores selected plans under the plan-identity key, so a
// plan request, the estimates under every config and multilevel's
// COASTS level share one selection.
func newPlanCache(max int, reg *obs.Registry) *flightCache[*sampling.Plan] {
	return newFlightCache(max, reg, planBytes, flightNames{
		hit: "serve.plans.reuses", coalesced: "serve.plans.reuses", miss: "serve.plans.selections",
		prefix: "serve.plans", wait: "waiting for in-flight plan selection",
	})
}

// planBytes approximates a plan's footprint: six 8-byte fields per
// point.
func planBytes(p *sampling.Plan) int64 { return int64(len(p.Points)) * 48 }

// newCkptCache stores built checkpoint sets under the plan-identity key
// — program content hash plus the plan-determining request fields, the
// config excluded — so every waiter shares one build.
func newCkptCache(max int, reg *obs.Registry) *flightCache[*ckpt.Set] {
	return newFlightCache(max, reg, func(s *ckpt.Set) int64 { return int64(s.ApproxBytes()) }, flightNames{
		hit: "serve.ckpt.reuses", coalesced: "serve.ckpt.reuses", miss: "serve.ckpt.builds",
		prefix: "serve.ckpt", wait: "waiting for in-flight checkpoint build",
	})
}

// get returns the value for key, computing it single-flight, and this
// caller's disposition: dispMiss when it ran compute, dispCoalesced
// when it joined a computation in flight, dispHit when the value was
// already complete. ctx only bounds this caller's wait on a computation
// another caller owns; compute carries its own deadline, so a waiter's
// disconnection never aborts work other waiters share.
func (c *flightCache[V]) get(ctx context.Context, key string, compute func() (V, error)) (V, string, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		disp, counter := dispCoalesced, c.names.coalesced
		select {
		case <-e.done:
			disp, counter = dispHit, c.names.hit
		default:
		}
		c.reg.Counter(counter).Inc()
		select {
		case <-e.done:
		case <-ctx.Done():
			var zero V
			return zero, disp, fmt.Errorf("%s: %w", c.names.wait, ctx.Err())
		}
		return e.val, disp, e.err
	}
	e := &flight[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.reg.Counter(c.names.miss).Inc()

	e.val, e.err = compute()
	close(e.done)

	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		c.order = append(c.order, key)
		c.bytes += c.size(e.val)
		for c.max > 0 && len(c.order) > c.max {
			old := c.order[0]
			c.order = c.order[1:]
			if victim, ok := c.entries[old]; ok {
				c.bytes -= c.size(victim.val)
				delete(c.entries, old)
				c.reg.Counter(c.names.prefix + ".evictions").Inc()
			}
		}
		c.reg.Gauge(c.names.prefix + ".entries").Set(float64(len(c.entries)))
		c.reg.Gauge(c.names.prefix + ".bytes").Set(float64(c.bytes))
	}
	c.mu.Unlock()
	return e.val, dispMiss, e.err
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
		size, serr := bench.ParseSize(req.Size)
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
