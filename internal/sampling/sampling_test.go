package sampling

import (
	"math"
	"testing"
	"testing/quick"
)

func validPlan() *Plan {
	return &Plan{
		Benchmark:  "bm",
		Method:     "m",
		TotalInsts: 1000,
		Points: []Point{
			{Start: 100, End: 200, Weight: 0.5, Level: 1, Parent: -1},
			{Start: 400, End: 450, Weight: 0.5, Level: 1, Parent: -1},
		},
	}
}

func TestValidateAcceptsGoodPlan(t *testing.T) {
	if err := validPlan().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Plan)
	}{
		{"no points", func(p *Plan) { p.Points = nil }},
		{"empty point", func(p *Plan) { p.Points[0].End = p.Points[0].Start }},
		{"out of range", func(p *Plan) { p.Points[1].End = 2000 }},
		{"overlap", func(p *Plan) { p.Points[1].Start = 150 }},
		{"zero weight", func(p *Plan) { p.Points[0].Weight = 0 }},
		{"weights sum", func(p *Plan) { p.Points[0].Weight = 0.9 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := validPlan()
			c.mutate(p)
			if err := p.Validate(); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}
}

func TestInstructionAccounting(t *testing.T) {
	p := validPlan()
	if got := p.DetailedInsts(); got != 150 {
		t.Errorf("DetailedInsts = %d, want 150", got)
	}
	// Functional: up to end of last point (450) minus detailed (150).
	if got := p.FunctionalInsts(); got != 300 {
		t.Errorf("FunctionalInsts = %d, want 300", got)
	}
	if got := p.DetailedFraction(); got != 0.15 {
		t.Errorf("DetailedFraction = %v", got)
	}
	if got := p.FunctionalFraction(); got != 0.3 {
		t.Errorf("FunctionalFraction = %v", got)
	}
	if got := p.LastPosition(); got != 449.0/1000 {
		t.Errorf("LastPosition = %v", got)
	}
	if got := p.MeanPointLen(); got != 75 {
		t.Errorf("MeanPointLen = %v", got)
	}
}

func TestSort(t *testing.T) {
	p := validPlan()
	p.Points[0], p.Points[1] = p.Points[1], p.Points[0]
	p.Sort()
	if p.Points[0].Start != 100 {
		t.Errorf("Sort failed: %+v", p.Points)
	}
}

func TestNormalizeWeights(t *testing.T) {
	p := validPlan()
	p.Points[0].Weight = 2
	p.Points[1].Weight = 6
	p.NormalizeWeights()
	if math.Abs(p.Points[0].Weight-0.25) > 1e-12 || math.Abs(p.Points[1].Weight-0.75) > 1e-12 {
		t.Errorf("weights = %+v", p.Points)
	}
	empty := &Plan{Points: []Point{{Weight: 0}}}
	empty.NormalizeWeights() // must not divide by zero
}

func TestTimeModel(t *testing.T) {
	tm := TimeModel{DetailedRate: 10, FunctionalRate: 100}
	if got := tm.Time(10, 100); got != 2 {
		t.Errorf("Time = %v, want 2", got)
	}
	p := validPlan()
	want := 150.0/10 + 300.0/100
	if got := tm.PlanTime(p); got != want {
		t.Errorf("PlanTime = %v, want %v", got, want)
	}
}

func TestSpeedupOrdering(t *testing.T) {
	tm := SimpleScalarRates
	// A late-ending fine plan vs an early coarse plan of the same
	// benchmark: early plan must be faster.
	late := &Plan{TotalInsts: 1_000_000, Points: []Point{
		{Start: 990_000, End: 991_000, Weight: 1},
	}}
	early := &Plan{TotalInsts: 1_000_000, Points: []Point{
		{Start: 10_000, End: 30_000, Weight: 1},
	}}
	s := tm.Speedup(early, late)
	if s <= 1 {
		t.Errorf("early-point speedup = %v, want > 1", s)
	}
}

func TestSpeedupInfiniteOnZeroTime(t *testing.T) {
	tm := SimpleScalarRates
	zero := &Plan{TotalInsts: 10}
	other := validPlan()
	if got := tm.Speedup(zero, other); !math.IsInf(got, 1) {
		t.Errorf("Speedup = %v, want +Inf", got)
	}
}

// Property: for any sorted non-overlapping plan, detailed + functional
// insts never exceed the end of the last point, and fractions are in
// [0,1].
func TestAccountingInvariants(t *testing.T) {
	f := func(startsRaw [5]uint16, lens [5]uint8) bool {
		pl := &Plan{TotalInsts: 1 << 20}
		var cur uint64
		for i := range startsRaw {
			cur += uint64(startsRaw[i]) + 1
			end := cur + uint64(lens[i]) + 1
			pl.Points = append(pl.Points, Point{Start: cur, End: end, Weight: 0.2})
			cur = end
		}
		det, fun := pl.DetailedInsts(), pl.FunctionalInsts()
		last := pl.Points[len(pl.Points)-1].End
		if det+fun != last {
			return false
		}
		return pl.DetailedFraction() >= 0 && pl.DetailedFraction() <= 1 &&
			pl.FunctionalFraction() >= 0 && pl.FunctionalFraction() <= 1 &&
			pl.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
