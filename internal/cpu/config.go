// Package cpu implements the detailed cycle-level out-of-order
// processor model — the reproduction's stand-in for SimpleScalar 3.0
// sim-outorder. It is execution-driven: the functional emulator
// supplies the committed instruction stream (PCs, memory addresses,
// branch outcomes) and the timing model accounts cycles through an
// 8-wide fetch/issue/commit pipeline with a reorder buffer,
// load/store queue, functional-unit pools, branch prediction, and the
// IL1/DL1/UL2 cache hierarchy of Table I.
package cpu

import (
	"fmt"

	"mlpa/internal/bpred"
	"mlpa/internal/cache"
	"mlpa/internal/isa"
)

// Config is a machine configuration (Table I).
type Config struct {
	Name string

	FetchWidth  int
	IssueWidth  int
	CommitWidth int

	ROBSize int
	LSQSize int

	// FUs[class] is the number of functional units of each class.
	// ClassNop and ClassBranch are ignored (branches execute on the
	// integer ALUs, as in SimpleScalar).
	FUs [isa.NumClasses]int

	Predictor  bpred.Kind
	BHTEntries int

	Caches cache.HierarchyConfig

	// SchedWindow is the number of oldest un-issued instructions the
	// scheduler examines per cycle (the RUU scan width).
	SchedWindow int

	// MispredictPenalty is the front-end refill penalty in cycles
	// charged after a mispredicted branch resolves.
	MispredictPenalty int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FetchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1 {
		return fmt.Errorf("cpu config %q: non-positive widths", c.Name)
	}
	if c.ROBSize < 2 || c.LSQSize < 1 {
		return fmt.Errorf("cpu config %q: ROB/LSQ too small", c.Name)
	}
	if c.FUs[isa.ClassIntALU] < 1 || c.FUs[isa.ClassLoad] < 1 {
		return fmt.Errorf("cpu config %q: missing integer ALU or load/store units", c.Name)
	}
	// An empty pool would leave its instructions waiting forever.
	for _, pool := range []struct {
		class isa.Class
		name  string
	}{
		{isa.ClassIntMul, "integer multiply/divide"},
		{isa.ClassFPAdd, "FP add"},
		{isa.ClassFPMul, "FP multiply/divide"},
	} {
		if c.FUs[pool.class] < 1 {
			return fmt.Errorf("cpu config %q: no %s units", c.Name, pool.name)
		}
	}
	if c.SchedWindow < c.IssueWidth {
		return fmt.Errorf("cpu config %q: scheduler window %d below issue width %d", c.Name, c.SchedWindow, c.IssueWidth)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("cpu config %q: negative mispredict penalty", c.Name)
	}
	if err := c.Caches.IL1.Validate(); err != nil {
		return err
	}
	if err := c.Caches.DL1.Validate(); err != nil {
		return err
	}
	if err := c.Caches.L2.Validate(); err != nil {
		return err
	}
	return nil
}

// Result reports the timing outcome of one detailed simulation region.
type Result struct {
	Insts  uint64
	Cycles uint64

	L1  cache.Stats // IL1+DL1 combined
	IL1 cache.Stats
	DL1 cache.Stats
	L2  cache.Stats

	Branch bpred.Stats
}

// CPI returns cycles per committed instruction.
func (r Result) CPI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Insts)
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// L1HitRate returns the combined L1 hit rate (paper Table II metric).
func (r Result) L1HitRate() float64 { return r.L1.HitRate() }

// L2HitRate returns the unified L2 hit rate (paper Table II metric).
func (r Result) L2HitRate() float64 { return r.L2.HitRate() }

// Add accumulates another region's counts into r (used to aggregate a
// full run simulated in chunks).
func (r *Result) Add(o Result) {
	r.Insts += o.Insts
	r.Cycles += o.Cycles
	addStats := func(dst *cache.Stats, s cache.Stats) {
		dst.Accesses += s.Accesses
		dst.Misses += s.Misses
		dst.Writebacks += s.Writebacks
	}
	addStats(&r.L1, o.L1)
	addStats(&r.IL1, o.IL1)
	addStats(&r.DL1, o.DL1)
	addStats(&r.L2, o.L2)
	r.Branch.Lookups += o.Branch.Lookups
	r.Branch.DirMisses += o.Branch.DirMisses
	r.Branch.TargetMisses += o.Branch.TargetMisses
}
