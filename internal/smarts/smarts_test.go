package smarts

import (
	"math"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/config"
	"mlpa/internal/pipeline"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
)

func TestSelectSystematicPlan(t *testing.T) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	cfg := Config{UnitLen: 100, Period: 10_000}
	plan, err := Select(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodName {
		t.Errorf("method = %q", plan.Method)
	}
	// Units are equally spaced and equally weighted.
	for i, pt := range plan.Points {
		if pt.Len() != 100 {
			t.Errorf("unit %d length %d", i, pt.Len())
		}
		if i > 0 && pt.Start-plan.Points[i-1].Start != 10_000 {
			t.Errorf("unit %d spacing %d", i, pt.Start-plan.Points[i-1].Start)
		}
		if math.Abs(pt.Weight-plan.Points[0].Weight) > 1e-12 {
			t.Errorf("unit %d weight %v differs", i, pt.Weight)
		}
	}
	if want := SampleSize(plan.TotalInsts, cfg); len(plan.Points) != want {
		t.Errorf("points = %d, SampleSize = %d", len(plan.Points), want)
	}
	// Systematic sampling fast-forwards essentially the whole program.
	if plan.LastPosition() < 0.9 {
		t.Errorf("last unit at %v, want near program end", plan.LastPosition())
	}
}

// TestSampleSizeMatchesSelect: SampleSize counts exactly the units
// Select places, over the tiny suite under this package's test design,
// the SMARTS ablation's (half a fine interval every 25) and the
// service's (one fine interval every 25).
func TestSampleSizeMatchesSelect(t *testing.T) {
	fine := bench.FineInterval(bench.SizeTiny)
	designs := []Config{
		{UnitLen: 100, Period: 10_000},
		{UnitLen: fine / 2, Period: 25 * fine},
		{UnitLen: fine, Period: 25 * fine},
	}
	for _, spec := range bench.Suite() {
		p := spec.MustProgram(bench.SizeTiny)
		for _, cfg := range designs {
			plan, err := Select(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := SampleSize(plan.TotalInsts, cfg); got != len(plan.Points) {
				t.Errorf("%s %+v: SampleSize = %d, Select placed %d units", spec.Name, cfg, got, len(plan.Points))
			}
		}
	}
	if got := SampleSize(100, Config{UnitLen: 0, Period: 10}); got != 0 {
		t.Errorf("invalid design: SampleSize = %d, want 0", got)
	}
}

func TestSelectErrors(t *testing.T) {
	spec, _ := bench.ByName("gzip")
	p := spec.MustProgram(bench.SizeTiny)
	if _, err := Select(p, Config{UnitLen: 0, Period: 100}); err == nil {
		t.Error("zero unit accepted")
	}
	if _, err := Select(p, Config{UnitLen: 200, Period: 100}); err == nil {
		t.Error("period below unit accepted")
	}
}

func TestShortProgramSingleUnit(t *testing.T) {
	spec, _ := bench.ByName("gzip")
	p := spec.MustProgram(bench.SizeTiny)
	plan, err := Select(p, Config{UnitLen: 1 << 30, Period: 1 << 31})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) != 1 || plan.Points[0].Len() != plan.TotalInsts {
		t.Errorf("plan = %+v", plan.Points)
	}
	if n := SampleSize(plan.TotalInsts, Config{UnitLen: 1 << 30, Period: 1 << 31}); n != 1 {
		t.Errorf("SampleSize = %d, want 1", n)
	}
}

// TestAccuracyComparableToSimPoint: systematic sampling with enough
// units estimates CPI comparably to representative sampling — its cost
// problem is time (full-program fast-forward), not accuracy.
func TestAccuracyComparableToSimPoint(t *testing.T) {
	spec, err := bench.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	truth, _, err := pipeline.FullDetailed(p, config.BaseA())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Select(p, Config{UnitLen: 160, Period: 4_000})
	if err != nil {
		t.Fatal(err)
	}
	est, err := pipeline.ExecutePlan(p, plan, config.BaseA(), pipeline.ExecOptions{
		Warmup: math.MaxUint32, DetailLeadIn: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, _, _ := pipeline.Deviations(est, truth)
	if dev > 0.2 {
		t.Errorf("systematic-sampling CPI deviation %v", dev)
	}
}

// TestTimeProfileWorseThanCoastsStyle: under the paper's time model, a
// systematic plan costs at least as much as fine SimPoint because the
// functional portion spans the entire run.
func TestTimeProfileVsSimPoint(t *testing.T) {
	spec, _ := bench.ByName("swim")
	p := spec.MustProgram(bench.SizeTiny)
	smPlan, err := Select(p, Config{UnitLen: 160, Period: 8_000})
	if err != nil {
		t.Fatal(err)
	}
	spPlan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := sampling.SimpleScalarRates
	// Functional fractions: systematic ~100%, SimPoint depends on its
	// last point; systematic can never be meaningfully faster.
	if tm.PlanTime(smPlan) < tm.PlanTime(spPlan)*0.8 {
		t.Errorf("systematic %v clearly faster than SimPoint %v", tm.PlanTime(smPlan), tm.PlanTime(spPlan))
	}
}

func TestConfidenceHalfWidth(t *testing.T) {
	if got := ConfidenceHalfWidth(2, 0, 1.96); !math.IsInf(got, 1) {
		t.Errorf("n=0 half-width = %v", got)
	}
	hw100 := ConfidenceHalfWidth(2, 100, 1.96)
	hw400 := ConfidenceHalfWidth(2, 400, 1.96)
	if math.Abs(hw100/hw400-2) > 1e-9 {
		t.Errorf("quadrupling n should halve the interval: %v vs %v", hw100, hw400)
	}
}
