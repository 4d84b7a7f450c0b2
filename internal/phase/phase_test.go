package phase

import (
	"testing"

	"mlpa/internal/bbv"
	"mlpa/internal/emu"
	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// twoPhaseProgram alternates between two kernels with very different
// block mixes inside an outer loop.
func twoPhaseProgram(t *testing.T, outerTrips int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("two-phase")
	b.Li(1, outerTrips)
	b.Label("outer")
	// Kernel A on even counter values, kernel B on odd.
	b.Andi(2, 1, 1)
	b.Bne(2, isa.RZero, "kb")
	b.CountedLoop("ka", 3, 40, func() {
		b.Add(4, 4, 4)
		b.Xor(5, 5, 4)
	})
	b.Jmp("next")
	b.Label("kb")
	b.CountedLoop("kbl", 3, 40, func() {
		b.Mul(6, 6, 6)
		b.Addi(6, 6, 1)
	})
	b.Label("next")
	b.Addi(1, 1, -1)
	b.Bne(1, isa.RZero, "outer")
	b.Halt()
	return b.MustBuild()
}

func projFor(p *prog.Program) *bbv.Projector {
	return bbv.MustNewProjector(p.NumBlocks(), bbv.DefaultDims, 42)
}

func TestCollectFixedCoversProgram(t *testing.T) {
	p := twoPhaseProgram(t, 10)
	tr, err := CollectFixed(p, projFor(p), 100)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != FixedLength {
		t.Errorf("Kind = %v", tr.Kind)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Intervals) < 5 {
		t.Fatalf("too few intervals: %d", len(tr.Intervals))
	}
	// All but the last interval are exactly 100 instructions.
	for i, iv := range tr.Intervals[:len(tr.Intervals)-1] {
		if iv.Len() != 100 {
			t.Errorf("interval %d length %d, want 100", i, iv.Len())
		}
	}
	if got := tr.Intervals[len(tr.Intervals)-1].End; got != tr.TotalInsts {
		t.Errorf("last interval ends at %d, total %d", got, tr.TotalInsts)
	}
}

func TestCollectFixedErrors(t *testing.T) {
	p := twoPhaseProgram(t, 2)
	if _, err := CollectFixed(p, projFor(p), 0); err == nil {
		t.Error("intervalLen=0 accepted")
	}
}

func TestCollectFixedSignaturesDiffer(t *testing.T) {
	p := twoPhaseProgram(t, 20)
	tr, err := CollectFixed(p, projFor(p), 90) // roughly one kernel run per interval
	if err != nil {
		t.Fatal(err)
	}
	// Expect at least two clearly different signatures among intervals.
	var maxD float64
	for i := 1; i < len(tr.Intervals); i++ {
		d := dist2(tr.Intervals[0].Vector, tr.Intervals[i].Vector)
		if d > maxD {
			maxD = d
		}
	}
	if maxD < 1e-6 {
		t.Errorf("all interval signatures identical (maxD %v)", maxD)
	}
}

func TestCollectIterationsBoundaries(t *testing.T) {
	p := twoPhaseProgram(t, 8)
	head := p.Labels["loop_outer$0"]
	// Find the outer loop head dynamically instead: profile it.
	head = findOuterHead(t, p)
	tr, err := CollectIterations(p, projFor(p), head)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != Iteration {
		t.Errorf("Kind = %v", tr.Kind)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 8 outer trips -> 8 iteration intervals (last absorbs epilogue).
	if len(tr.Intervals) != 8 {
		t.Fatalf("intervals = %d, want 8", len(tr.Intervals))
	}
}

func findOuterHead(t *testing.T, p *prog.Program) int64 {
	t.Helper()
	m := emu.New(p, 0)
	lp := emu.NewLoopProfiler(m)
	m.Branch = lp.OnBranch
	if _, err := m.RunToCompletion(1 << 30); err != nil {
		t.Fatal(err)
	}
	lp.Finish()
	sel := lp.SelectCoarse(m.Insts, 0.01)
	if sel == nil {
		t.Fatal("no coarse structure found")
	}
	return sel.Head
}

func TestCollectIterationsAlternatingPhases(t *testing.T) {
	p := twoPhaseProgram(t, 10)
	head := findOuterHead(t, p)
	tr, err := CollectIterations(p, projFor(p), head)
	if err != nil {
		t.Fatal(err)
	}
	// Iterations alternate kernels: signature(0) ~ signature(2) and
	// distinct from signature(1).
	same := dist2(tr.Intervals[0].Vector, tr.Intervals[2].Vector)
	diff := dist2(tr.Intervals[0].Vector, tr.Intervals[1].Vector)
	if same*10 > diff {
		t.Errorf("alternating phases not separated: same=%v diff=%v", same, diff)
	}
}

func TestCollectIterationsNoLoop(t *testing.T) {
	p, err := prog.Assemble("flat", "addi r1, r0, 5\nadd r2, r1, r1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	proj := bbv.MustNewProjector(p.NumBlocks(), 15, 1)
	tr, err := CollectIterations(p, proj, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Whole program becomes a single interval.
	if len(tr.Intervals) != 1 || tr.Intervals[0].Len() != tr.TotalInsts {
		t.Errorf("intervals = %+v", tr.Intervals)
	}
}

func TestPosition(t *testing.T) {
	tr := &Trace{
		TotalInsts: 100,
		Intervals: []Interval{
			{Index: 0, Start: 0, End: 50},
			{Index: 1, Start: 50, End: 100},
		},
	}
	if got := tr.Position(0); got != 0.49 {
		t.Errorf("Position(0) = %v, want 0.49", got)
	}
	if got := tr.Position(1); got != 0.99 {
		t.Errorf("Position(1) = %v, want 0.99", got)
	}
	empty := &Trace{}
	empty.Intervals = []Interval{{End: 1}}
	if empty.Position(0) != 0 {
		t.Error("Position on empty trace != 0")
	}
}

func TestValidateCatchesGaps(t *testing.T) {
	bad := &Trace{
		TotalInsts: 10,
		Intervals: []Interval{
			{Index: 0, Start: 0, End: 4},
			{Index: 1, Start: 5, End: 10}, // gap at 4
		},
	}
	if err := bad.Validate(); err == nil {
		t.Error("gap accepted")
	}
	short := &Trace{
		TotalInsts: 10,
		Intervals:  []Interval{{Index: 0, Start: 0, End: 4}},
	}
	if err := short.Validate(); err == nil {
		t.Error("short coverage accepted")
	}
	empty := &Trace{
		TotalInsts: 4,
		Intervals:  []Interval{{Index: 0, Start: 0, End: 4}, {Index: 1, Start: 4, End: 4}},
	}
	if err := empty.Validate(); err == nil {
		t.Error("empty interval accepted")
	}
}

func TestVectors(t *testing.T) {
	tr := &Trace{Intervals: []Interval{
		{Vector: []float64{1}},
		{Vector: []float64{2}},
	}}
	v := tr.Vectors()
	if len(v) != 2 || v[0][0] != 1 || v[1][0] != 2 {
		t.Errorf("Vectors = %v", v)
	}
}

func TestFixedAndIterationTotalsAgree(t *testing.T) {
	p := twoPhaseProgram(t, 5)
	proj := projFor(p)
	fixed, err := CollectFixed(p, proj, 64)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := CollectIterations(p, proj, findOuterHead(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if fixed.TotalInsts != iter.TotalInsts {
		t.Errorf("totals differ: fixed %d, iteration %d", fixed.TotalInsts, iter.TotalInsts)
	}
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
