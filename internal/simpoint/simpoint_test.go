package simpoint

import (
	"testing"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// phasedProgram runs three distinct kernels in sequence, each long
// enough to span several intervals.
func phasedProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("threephase")
	b.CountedLoop("a", 1, 300, func() {
		b.Add(2, 2, 2)
		b.Xor(3, 3, 2)
	})
	b.CountedLoop("b", 1, 300, func() {
		b.Mul(4, 4, 4)
		b.Addi(4, 4, 3)
	})
	b.CountedLoop("c", 1, 300, func() {
		b.Fadd(isa.F(1), isa.F(1), isa.F(2))
		b.Fmul(isa.F(3), isa.F(1), isa.F(1))
	})
	b.Halt()
	return b.MustBuild()
}

func TestSelectBasics(t *testing.T) {
	p := phasedProgram(t)
	plan, tr, km, err := Select(p, Config{IntervalLen: 100, Kmax: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodName {
		t.Errorf("Method = %q", plan.Method)
	}
	if plan.TotalInsts != tr.TotalInsts {
		t.Errorf("plan total %d != trace total %d", plan.TotalInsts, tr.TotalInsts)
	}
	// Three clearly distinct kernels: expect K in [3, 6] and at least
	// 3 points.
	if km.K < 3 {
		t.Errorf("K = %d, want >= 3 for three distinct phases", km.K)
	}
	if len(plan.Points) < 3 {
		t.Errorf("points = %d, want >= 3", len(plan.Points))
	}
}

func TestPointsAlignToIntervals(t *testing.T) {
	p := phasedProgram(t)
	plan, tr, _, err := Select(p, Config{IntervalLen: 100, Kmax: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range plan.Points {
		iv := tr.Intervals[pt.Interval]
		if pt.Start != iv.Start || pt.End != iv.End {
			t.Errorf("point [%d,%d) does not match interval %d [%d,%d)", pt.Start, pt.End, pt.Interval, iv.Start, iv.End)
		}
		if pt.Level != 1 || pt.Parent != -1 {
			t.Errorf("point metadata = %+v", pt)
		}
	}
}

func TestWeightsMatchClusterShares(t *testing.T) {
	p := phasedProgram(t)
	plan, tr, km, err := Select(p, Config{IntervalLen: 100, Kmax: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct cluster instruction shares and compare.
	clusterInsts := make(map[int]uint64)
	for i, iv := range tr.Intervals {
		clusterInsts[km.Assign[i]] += iv.Len()
	}
	for _, pt := range plan.Points {
		c := km.Assign[pt.Interval]
		want := float64(clusterInsts[c]) / float64(tr.TotalInsts)
		if diff := pt.Weight - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("point weight %v, want %v", pt.Weight, want)
		}
	}
}

func TestEarlySPPicksEarlierPoints(t *testing.T) {
	p := phasedProgram(t)
	std, _, _, err := Select(p, Config{IntervalLen: 100, Kmax: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	early, _, _, err := Select(p, Config{IntervalLen: 100, Kmax: 8, Seed: 4, EarlySP: true})
	if err != nil {
		t.Fatal(err)
	}
	if early.Method != MethodNameEarly {
		t.Errorf("Method = %q", early.Method)
	}
	if early.LastPosition() > std.LastPosition()+1e-9 {
		t.Errorf("EarlySP last position %v > standard %v", early.LastPosition(), std.LastPosition())
	}
}

func TestConfigErrors(t *testing.T) {
	p := phasedProgram(t)
	if _, _, _, err := Select(p, Config{}); err == nil {
		t.Error("zero IntervalLen accepted")
	}
}

func TestDeterministicSelection(t *testing.T) {
	p := phasedProgram(t)
	cfg := Config{IntervalLen: 100, Kmax: 8, Seed: 7}
	p1, _, _, err := Select(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, _, err := Select(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Points) != len(p2.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(p1.Points), len(p2.Points))
	}
	for i := range p1.Points {
		if p1.Points[i] != p2.Points[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, p1.Points[i], p2.Points[i])
		}
	}
}

func TestRepresentativeIsNearCentroid(t *testing.T) {
	p := phasedProgram(t)
	plan, tr, km, err := Select(p, Config{IntervalLen: 100, Kmax: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range plan.Points {
		c := km.Assign[pt.Interval]
		repDist := dist2(tr.Intervals[pt.Interval].Vector, km.Centroids[c])
		for i := range tr.Intervals {
			if km.Assign[i] == c {
				if d := dist2(tr.Intervals[i].Vector, km.Centroids[c]); d < repDist-1e-12 {
					t.Fatalf("interval %d closer to centroid than representative %d", i, pt.Interval)
				}
			}
		}
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
