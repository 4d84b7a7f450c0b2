// Package phase defines execution intervals — the unit of phase
// analysis — and the profiling collectors that produce them: fixed
// instruction-length intervals (SimPoint's fine-grained scheme, cut by
// CollectFixedRange) and variable-length intervals cut at chosen taken
// transfers by CollectCuts, such as the cyclic-structure iterations of
// the paper's coarse-grained COASTS scheme.
package phase

import (
	"context"
	"fmt"

	"mlpa/internal/bbv"
	"mlpa/internal/emu"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
)

// Kind distinguishes interval granularities.
type Kind string

// Interval kinds.
const (
	FixedLength Kind = "fixed"     // fine-grained, fixed instruction count
	Iteration   Kind = "iteration" // coarse-grained, loop-iteration bounded
)

// Interval is one contiguous execution region with its behaviour
// signature.
type Interval struct {
	Index  int
	Start  uint64 // committed-instruction count at interval start
	End    uint64 // exclusive
	Vector []float64
}

// Len returns the interval length in instructions.
func (iv Interval) Len() uint64 { return iv.End - iv.Start }

// Trace is the profiling result for one program (or one execution
// range of it): its intervals in execution order.
type Trace struct {
	Benchmark string
	Kind      Kind
	Intervals []Interval

	// Origin is the absolute instruction count where the trace begins
	// (0 for whole-program traces, the region start for range traces).
	Origin uint64

	// TotalInsts is the absolute instruction count where the trace
	// ends (program length for whole-program traces).
	TotalInsts uint64
}

// Vectors returns the interval signature matrix (rows in execution
// order) for clustering.
func (t *Trace) Vectors() [][]float64 {
	out := make([][]float64, len(t.Intervals))
	for i := range t.Intervals {
		out[i] = t.Intervals[i].Vector
	}
	return out
}

// Validate checks trace invariants: contiguous, non-empty intervals
// covering [Origin, TotalInsts).
func (t *Trace) Validate() error {
	prev := t.Origin
	for i, iv := range t.Intervals {
		if iv.Index != i {
			return fmt.Errorf("phase: interval %d has index %d", i, iv.Index)
		}
		if iv.Start != prev {
			return fmt.Errorf("phase: interval %d starts at %d, want %d", i, iv.Start, prev)
		}
		if iv.End <= iv.Start {
			return fmt.Errorf("phase: interval %d empty [%d,%d)", i, iv.Start, iv.End)
		}
		prev = iv.End
	}
	if prev != t.TotalInsts {
		return fmt.Errorf("phase: intervals cover %d instructions, trace has %d", prev, t.TotalInsts)
	}
	return nil
}

// Position returns the paper's "position" of interval i: the
// instruction count before its last instruction divided by the total
// instruction count.
func (t *Trace) Position(i int) float64 {
	if t.TotalInsts == 0 {
		return 0
	}
	return float64(t.Intervals[i].End-1) / float64(t.TotalInsts)
}

// Plan turns a clustering of the trace into a validated level-1
// sampling plan: assign[i] is interval i's cluster and reps[c] the
// interval representing cluster c (-1 for an empty cluster). Each
// point is weighted by its cluster's instruction share, which equal
// intervals make an interval-count share while a final partial
// interval is weighted honestly.
func (t *Trace) Plan(method string, assign, reps []int) (*sampling.Plan, error) {
	clusterInsts := make([]uint64, len(reps))
	for i, iv := range t.Intervals {
		clusterInsts[assign[i]] += iv.Len()
	}
	plan := &sampling.Plan{
		Benchmark:  t.Benchmark,
		Method:     method,
		TotalInsts: t.TotalInsts,
	}
	for c, rep := range reps {
		if rep < 0 {
			continue // empty cluster
		}
		iv := t.Intervals[rep]
		plan.Points = append(plan.Points, sampling.Point{
			Start:    iv.Start,
			End:      iv.End,
			Weight:   float64(clusterInsts[c]) / float64(t.TotalInsts),
			Level:    1,
			Interval: rep,
			Parent:   -1,
		})
	}
	plan.Sort()
	plan.NormalizeWeights()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// runBound is the safety bound for profiled executions.
const runBound = 1 << 40

// CollectCuts executes p from the start to completion and ends an
// interval at every taken control transfer for which cut(from, to,
// insts) returns true; insts counts every instruction up to and
// including the transfer. Each interval carries the projected,
// normalized BBV signature of its instructions. The instructions after
// the last cut form the final interval (the whole program when nothing
// is cut). cut runs as a Branch hook, so it sees only what the
// emu.BranchHook contract promises.
func CollectCuts(p *prog.Program, proj *bbv.Projector, kind Kind, cut func(from, to int64, insts uint64) bool) (*Trace, error) {
	m := emu.New(p, 0)
	tr := &Trace{Benchmark: p.Name, Kind: kind}
	var start uint64
	var sigErr error
	m.Branch = func(from, to int64) {
		if sigErr == nil && cut(from, to, m.Insts) {
			sigErr = endInterval(tr, proj, m, start, m.Insts)
			start = m.Insts
		}
	}
	if _, err := m.RunToCompletion(runBound); err != nil {
		return nil, fmt.Errorf("phase: %s intervals of %s: %w", kind, p.Name, err)
	}
	if sigErr != nil {
		return nil, sigErr
	}
	if m.Insts > start || len(tr.Intervals) == 0 {
		if err := endInterval(tr, proj, m, start, m.Insts); err != nil {
			return nil, err
		}
	}
	tr.TotalInsts = m.Insts
	return tr, tr.Validate()
}

// endInterval appends the interval [start, end) to tr with the
// signature of m's BlockCounts, then resets them for the next one.
func endInterval(tr *Trace, proj *bbv.Projector, m *emu.Machine, start, end uint64) error {
	vec, err := proj.Signature(m.BlockCounts)
	if err != nil {
		return err
	}
	m.ResetBlockCounts()
	tr.Intervals = append(tr.Intervals, Interval{
		Index:  len(tr.Intervals),
		Start:  start,
		End:    end,
		Vector: vec,
	})
	return nil
}

// CollectIterations executes p from the start and produces one
// interval per iteration of the cyclic structure headed at head: a cut
// at every back-edge to head. Instructions before the first arrival
// attach to the first iteration; instructions after the last back-edge
// (including program epilogue) form the final interval.
func CollectIterations(p *prog.Program, proj *bbv.Projector, head int64) (*Trace, error) {
	return CollectCuts(p, proj, Iteration, func(from, to int64, _ uint64) bool {
		return to == head && to <= from
	})
}

// CollectFixed executes p from the start and produces fixed-length
// intervals of intervalLen instructions: CollectFixedRange over the
// whole program. The final partial interval (if any) is kept, as
// SimPoint does. A program still running at the run bound is an error.
func CollectFixed(p *prog.Program, proj *bbv.Projector, intervalLen uint64) (*Trace, error) {
	tr, err := CollectFixedRange(p, proj, intervalLen, 0, runBound)
	if err == nil && tr.TotalInsts == runBound {
		return nil, fmt.Errorf("phase: CollectFixed(%s): run bound exceeded", p.Name)
	}
	return tr, err
}

// CollectFixedRange profiles fixed-length intervals within the
// absolute instruction range [start, end): the program is functionally
// fast-forwarded to start, then cut every intervalLen instructions,
// each interval carrying its projected, normalized BBV signature.
// Interval Start/End values are absolute; the final interval is
// truncated at end or at program halt. Inside a selected coarse-grained
// simulation point this is the second-level profiling pass of the
// multi-level framework.
func CollectFixedRange(p *prog.Program, proj *bbv.Projector, intervalLen, start, end uint64) (*Trace, error) {
	if intervalLen == 0 {
		return nil, fmt.Errorf("phase: intervalLen = 0")
	}
	if end <= start {
		return nil, fmt.Errorf("phase: empty range [%d,%d)", start, end)
	}
	m := emu.New(p, 0)
	if _, err := m.RunTo(context.TODO(), start); err != nil {
		return nil, fmt.Errorf("phase: CollectFixedRange(%s): %w", p.Name, err)
	}
	m.ResetBlockCounts()
	tr := &Trace{Benchmark: p.Name, Kind: FixedLength, Origin: start}
	cur := start
	for !m.Halted && cur < end {
		n, err := m.Run(min(intervalLen, end-cur))
		if err != nil {
			return nil, fmt.Errorf("phase: CollectFixedRange(%s): %w", p.Name, err)
		}
		if n == 0 {
			break
		}
		if err := endInterval(tr, proj, m, cur, m.Insts); err != nil {
			return nil, err
		}
		cur = m.Insts
	}
	tr.TotalInsts = cur
	return tr, tr.Validate()
}
