package emu

import (
	"testing"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// nestedLoops builds: outer loop (outerTrips) containing an inner loop
// (innerTrips) plus some straight-line work per outer iteration.
func nestedLoops(t *testing.T, outerTrips, innerTrips int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("nested")
	b.Li(1, outerTrips)
	b.Label("outer")
	b.Addi(3, 3, 1) // outer body work
	b.Li(2, innerTrips)
	b.Label("inner")
	b.Addi(4, 4, 1)
	b.Addi(2, 2, -1)
	b.Bne(2, isa.RZero, "inner")
	b.Addi(1, 1, -1)
	b.Bne(1, isa.RZero, "outer")
	b.Halt()
	return b.MustBuild()
}

func profileProgram(t *testing.T, p *prog.Program) (*Machine, *LoopProfiler) {
	t.Helper()
	m := New(p, 0)
	lp := NewLoopProfiler(m)
	m.Branch = lp.OnBranch
	if _, err := m.RunToCompletion(1e8); err != nil {
		t.Fatal(err)
	}
	lp.Finish()
	return m, lp
}

func TestLoopProfilerFindsBothLoops(t *testing.T) {
	p := nestedLoops(t, 10, 20)
	m, lp := profileProgram(t, p)
	structs := lp.Structures()
	if len(structs) != 2 {
		t.Fatalf("found %d structures, want 2: %+v", len(structs), structs)
	}
	// The outer loop covers more instructions than the inner.
	outer, inner := structs[0], structs[1]
	if outer.Head != p.Labels["outer"] {
		t.Errorf("top structure head = %d, want outer at %d", outer.Head, p.Labels["outer"])
	}
	if inner.Head != p.Labels["inner"] {
		t.Errorf("second structure head = %d, want inner at %d", inner.Head, p.Labels["inner"])
	}
	if outer.TotalInsts <= inner.TotalInsts {
		t.Errorf("outer covers %d <= inner %d", outer.TotalInsts, inner.TotalInsts)
	}
	// 10 outer trips -> 10 iterations (9 back edges + final dangling
	// iteration credited by Finish).
	if outer.Iterations != 10 {
		t.Errorf("outer iterations = %d, want 10", outer.Iterations)
	}
	// Inner loop: 20 trips per activation, 10 activations.
	if inner.Iterations != 200 {
		t.Errorf("inner iterations = %d, want 200", inner.Iterations)
	}
	if outer.Depth != 0 {
		t.Errorf("outer depth = %d, want 0", outer.Depth)
	}
	_ = m
}

func TestLoopProfilerIterationLengthsUniform(t *testing.T) {
	p := nestedLoops(t, 8, 5)
	_, lp := profileProgram(t, p)
	outer := lp.Structures()[0]
	// Uniform loop: lengths equal except the first iteration (absorbs
	// the prologue) and the last (absorbs the epilogue).
	if outer.MaxIter-outer.MinIter > 6 {
		t.Errorf("uniform loop spread too wide: min %d, max %d", outer.MinIter, outer.MaxIter)
	}
	mean := outer.MeanIter()
	if mean < float64(outer.MinIter) || mean > float64(outer.MaxIter) {
		t.Errorf("mean %v outside [%d,%d]", mean, outer.MinIter, outer.MaxIter)
	}
}

func TestSignificantFiltersTinyLoops(t *testing.T) {
	// Big outer loop plus a tiny 2-trip prologue loop (<1% coverage).
	b := prog.NewBuilder("tiny")
	b.Li(1, 2)
	b.Label("tinyloop")
	b.Addi(1, 1, -1)
	b.Bne(1, isa.RZero, "tinyloop")
	b.Li(1, 500)
	b.Label("big")
	b.Addi(2, 2, 1)
	b.Addi(3, 3, 1)
	b.Addi(4, 4, 1)
	b.Addi(1, 1, -1)
	b.Bne(1, isa.RZero, "big")
	b.Halt()
	p := b.MustBuild()
	m, lp := profileProgram(t, p)

	sig := lp.Significant(m.Insts, 0.01)
	if len(sig) != 1 {
		t.Fatalf("significant structures = %d, want 1", len(sig))
	}
	if sig[0].Head != p.Labels["big"] {
		t.Errorf("significant head = %d, want big loop", sig[0].Head)
	}
}

func TestSelectCoarsePrefersOuter(t *testing.T) {
	p := nestedLoops(t, 10, 50)
	m, lp := profileProgram(t, p)
	sel := lp.SelectCoarse(m.Insts, 0.01)
	if sel == nil {
		t.Fatal("SelectCoarse returned nil")
	}
	if sel.Head != p.Labels["outer"] {
		t.Errorf("selected head = %d, want outer %d", sel.Head, p.Labels["outer"])
	}
}

func TestSelectCoarseNilWhenNoLoops(t *testing.T) {
	p, err := prog.Assemble("straight", "addi r1, r0, 1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	m, lp := profileProgram(t, p)
	if sel := lp.SelectCoarse(m.Insts, 0.01); sel != nil {
		t.Errorf("SelectCoarse = %+v, want nil", sel)
	}
}

func TestCoverageMath(t *testing.T) {
	s := &LoopStats{TotalInsts: 50}
	if got := s.Coverage(200); got != 0.25 {
		t.Errorf("Coverage = %v, want 0.25", got)
	}
	if got := s.Coverage(0); got != 0 {
		t.Errorf("Coverage(0) = %v, want 0", got)
	}
	empty := &LoopStats{}
	if empty.MeanIter() != 0 {
		t.Errorf("MeanIter on empty = %v", empty.MeanIter())
	}
}

func TestProfilerVariableIterations(t *testing.T) {
	// Outer loop whose inner work varies by iteration: lengths differ.
	b := prog.NewBuilder("vary")
	b.Li(1, 5) // outer counter r1: 5..1
	b.Label("outer")
	b.Add(2, isa.RZero, 1) // r2 = r1 (inner trips = outer counter)
	b.Label("inner")
	b.Addi(3, 3, 1)
	b.Addi(2, 2, -1)
	b.Bne(2, isa.RZero, "inner")
	b.Addi(1, 1, -1)
	b.Bne(1, isa.RZero, "outer")
	b.Halt()
	p := b.MustBuild()
	_, lp := profileProgram(t, p)
	var outer *LoopStats
	for _, s := range lp.Structures() {
		if s.Head == p.Labels["outer"] {
			outer = s
		}
	}
	if outer == nil {
		t.Fatal("outer loop not found")
	}
	if outer.MinIter == outer.MaxIter {
		t.Errorf("variable loop has uniform iteration lengths min=max=%d", outer.MinIter)
	}
}
