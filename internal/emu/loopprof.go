package emu

import (
	"sort"
)

// LoopProfiler discovers cyclic program structures (loops, shallow
// recursion) dynamically from taken-branch events, the way the
// boundary-collection profiling stage of the paper does. A backward
// taken transfer to PC h marks h as a cyclic-structure head; the spans
// between consecutive arrivals at h are its iteration instances.
//
// Attach with:
//
//	lp := emu.NewLoopProfiler(m)
//	m.Branch = lp.OnBranch
//	... run ...
//	lp.Finish()
//
// Finish must be called after the run to credit the final, danglig
// iteration of each still-active structure (a loop's last trip ends
// with a not-taken branch, which produces no event).
//
// Structures exited without a closing back edge (a not-taken branch
// falling out of the body) are popped at the next backward transfer
// whose source lies outside their observed [head, latch] extent, or at
// Finish; until then a later re-entry would count one oversized
// iteration. The structured loops emitted by the program Builder close
// every activation with a back edge.
type LoopProfiler struct {
	m     *Machine
	stats map[int64]*LoopStats
	stack []stackEntry
}

type stackEntry struct {
	head     int64
	lastIter uint64 // Insts at the start of the current iteration
	latch    int64  // highest back-edge source PC observed this activation
}

// LoopStats accumulates the dynamic profile of one cyclic structure.
type LoopStats struct {
	Head       int64  // PC of the structure head (backward-branch target)
	Iterations uint64 // iteration instances observed
	TotalInsts uint64 // instructions inside observed iterations
	MinIter    uint64 // shortest iteration length
	MaxIter    uint64 // longest iteration length
	Depth      int    // maximum observed dynamic nesting depth (0 = outermost)
	FirstSeen  uint64 // instruction count at first entry
	LastSeen   uint64 // instruction count at most recent boundary
}

// MeanIter returns the mean iteration length.
func (s *LoopStats) MeanIter() float64 {
	if s.Iterations == 0 {
		return 0
	}
	return float64(s.TotalInsts) / float64(s.Iterations)
}

// Coverage returns the fraction of the totalInsts instruction budget
// spent inside this structure's iterations.
func (s *LoopStats) Coverage(totalInsts uint64) float64 {
	if totalInsts == 0 {
		return 0
	}
	return float64(s.TotalInsts) / float64(totalInsts)
}

// NewLoopProfiler creates a profiler reading instruction counts from m.
func NewLoopProfiler(m *Machine) *LoopProfiler {
	return &LoopProfiler{
		m:     m,
		stats: make(map[int64]*LoopStats),
	}
}

// credit records one iteration of e's structure spanning
// [e.lastIter, now). Exact spans (back-edge to back-edge) pass
// approx=false. Approximate spans — the entry iteration measured from
// the enclosing structure's position, and the dangling final iteration
// flushed at pop/Finish time — pass approx=true and are capped by the
// shortest iteration observed so far, so a structure exited by a
// not-taken branch cannot absorb its enclosing structure's body and an
// inner structure's coverage stays strictly below its parent's.
func (lp *LoopProfiler) credit(e stackEntry, now uint64, approx bool) {
	iterLen := now - e.lastIter
	if iterLen == 0 {
		return
	}
	st := lp.stats[e.head]
	if approx && st.MinIter > 0 && iterLen > st.MinIter {
		iterLen = st.MinIter
	}
	st.Iterations++
	st.TotalInsts += iterLen
	if st.MinIter == 0 || iterLen < st.MinIter {
		st.MinIter = iterLen
	}
	if iterLen > st.MaxIter {
		st.MaxIter = iterLen
	}
	st.LastSeen = now
}

// OnBranch is the BranchHook entry point.
func (lp *LoopProfiler) OnBranch(from, to int64) {
	if to > from {
		return // forward transfer: not a loop-back edge
	}
	now := lp.m.Insts
	// Pop stack entries that cannot contain this transfer. Inner loops
	// have heads at higher PCs in linear code layout, so a backward
	// branch to a lower head closes them; and a structure whose
	// observed body [head, latch] ends before the transfer source was
	// exited earlier by a not-taken branch (which produced no event) —
	// popping it here keeps a sequentially-following loop from being
	// misread as nested inside it. Credit final iterations as they end.
	for len(lp.stack) > 0 {
		top := lp.stack[len(lp.stack)-1]
		if top.head == to || (top.head < to && top.latch >= from) {
			break
		}
		lp.credit(top, now, true)
		lp.stack = lp.stack[:len(lp.stack)-1]
	}
	if len(lp.stack) > 0 && lp.stack[len(lp.stack)-1].head == to {
		top := &lp.stack[len(lp.stack)-1]
		lp.credit(*top, now, false)
		top.lastIter = now
		if from > top.latch {
			top.latch = from
		}
		return
	}
	// First observed back-edge of a new activation: the first
	// iteration began when control entered the structure. Approximate
	// the entry point by the enclosing structure's current iteration
	// start (program start for the outermost), which attaches any
	// pre-loop straight-line code to the first iteration.
	var start uint64
	if len(lp.stack) > 0 {
		start = lp.stack[len(lp.stack)-1].lastIter
	}
	st := lp.stats[to]
	if st == nil {
		st = &LoopStats{Head: to, Depth: len(lp.stack), FirstSeen: start}
		lp.stats[to] = st
	} else if len(lp.stack) > st.Depth {
		// Deeper context than any earlier activation: an inner loop is
		// often discovered before its parent's first back edge, so the
		// depth ratchets up as enclosing structures appear.
		st.Depth = len(lp.stack)
	}
	lp.stack = append(lp.stack, stackEntry{head: to, lastIter: now, latch: from})
	lp.credit(stackEntry{head: to, lastIter: start}, now, true)
}

// Finish credits the dangling final iteration of every still-active
// structure and empties the stack. Call once after the profiled run.
func (lp *LoopProfiler) Finish() {
	now := lp.m.Insts
	for len(lp.stack) > 0 {
		lp.credit(lp.stack[len(lp.stack)-1], now, true)
		lp.stack = lp.stack[:len(lp.stack)-1]
	}
}

// Structures returns all discovered cyclic structures ordered by
// decreasing instruction coverage.
func (lp *LoopProfiler) Structures() []*LoopStats {
	out := make([]*LoopStats, 0, len(lp.stats))
	for _, s := range lp.stats {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalInsts != out[j].TotalInsts {
			return out[i].TotalInsts > out[j].TotalInsts
		}
		return out[i].Head < out[j].Head
	})
	return out
}

// Significant returns structures whose coverage of totalInsts is at
// least minCoverage (the paper discards structures below 1%).
func (lp *LoopProfiler) Significant(totalInsts uint64, minCoverage float64) []*LoopStats {
	var out []*LoopStats
	for _, s := range lp.Structures() {
		if s.Coverage(totalInsts) >= minCoverage && s.Iterations >= 1 {
			out = append(out, s)
		}
	}
	return out
}

// SelectCoarse picks the cyclic structure whose iterations will form
// the coarse-grained intervals: the significant structure with the
// greatest coverage, preferring shallower (more outer) structures on
// near ties. Returns nil if no structure qualifies.
func (lp *LoopProfiler) SelectCoarse(totalInsts uint64, minCoverage float64) *LoopStats {
	sig := lp.Significant(totalInsts, minCoverage)
	if len(sig) == 0 {
		return nil
	}
	best := sig[0]
	for _, s := range sig[1:] {
		// Prefer an outer structure when it covers at least as much
		// as the current best within 1%; otherwise higher coverage wins.
		if s.Depth < best.Depth && s.TotalInsts+totalInsts/100 >= best.TotalInsts {
			best = s
		}
	}
	return best
}
