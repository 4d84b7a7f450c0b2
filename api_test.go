// Public-API tests: exercise the facade end-to-end the way a
// downstream user would, without touching internal packages.
package mlpa_test

import (
	"strings"
	"testing"

	"mlpa"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	spec, err := mlpa.BenchmarkByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	program, err := spec.Program(mlpa.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	fine := mlpa.FineInterval(mlpa.SizeTiny)

	sp, err := mlpa.SelectSimPoint(program, mlpa.SimPointConfig{IntervalLen: fine, Kmax: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	co, err := mlpa.SelectCoasts(program, mlpa.CoastsConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ml, rep, err := mlpa.SelectMultiLevel(program, mlpa.MultiLevelConfig{
		Coarse: mlpa.CoastsConfig{Seed: 1},
		Fine:   mlpa.SimPointConfig{IntervalLen: fine, Kmax: 10, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(rep.CoarsePlan.Points) == 0 {
		t.Fatal("empty multi-level report")
	}

	truth, err := mlpa.GroundTruth(program, mlpa.ConfigA())
	if err != nil {
		t.Fatal(err)
	}
	opts := mlpa.ExecOptions{Warmup: 1 << 62, DetailLeadIn: 512}
	for _, plan := range []*mlpa.Plan{sp, co, ml} {
		est, err := mlpa.Execute(program, plan, mlpa.ConfigA(), opts)
		if err != nil {
			t.Fatalf("%s: %v", plan.Method, err)
		}
		cpiDev, l1Dev, _ := mlpa.Deviations(est, truth)
		if cpiDev > 0.6 || l1Dev > 0.2 {
			t.Errorf("%s deviations: cpi %v, l1 %v", plan.Method, cpiDev, l1Dev)
		}
	}

	// Time model ordering: multi-level at least as fast as SimPoint
	// for this early-phase benchmark.
	tm := mlpa.SimpleScalarRates
	if tm.Speedup(ml, sp) < 1 {
		t.Errorf("multi-level speedup %v < 1", tm.Speedup(ml, sp))
	}
}

func TestPublicAPIExtensions(t *testing.T) {
	spec, err := mlpa.BenchmarkByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	program, err := spec.Program(mlpa.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	fine := mlpa.FineInterval(mlpa.SizeTiny)

	vliPlan, err := mlpa.SelectVLI(program, mlpa.VLIConfig{TargetLen: fine, Kmax: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := vliPlan.Validate(); err != nil {
		t.Fatal(err)
	}

	smPlan, err := mlpa.SelectSmarts(program, mlpa.SmartsConfig{UnitLen: fine, Period: fine * 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(smPlan.Points) < 2 {
		t.Fatalf("smarts points = %d", len(smPlan.Points))
	}

	est, err := mlpa.Execute(program, smPlan, mlpa.ConfigB(), mlpa.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if est.CPI <= 0 {
		t.Errorf("smarts estimate CPI = %v", est.CPI)
	}

	// Phase predictors through the facade.
	for _, p := range []mlpa.PhasePredictor{
		mlpa.NewLastPhasePredictor(),
		mlpa.NewMarkovPhasePredictor(2),
		mlpa.NewRLEMarkovPhasePredictor(),
	} {
		p.Observe(0)
		p.Observe(1)
		if got := p.Predict(); got < 0 {
			t.Errorf("%s cold after observations", p.Name())
		}
	}
}

func TestPublicAPIProgramConstruction(t *testing.T) {
	// Builder path.
	b := mlpa.NewBuilder("api")
	b.Li(1, 100)
	b.Label("l")
	b.Addi(2, 2, 1)
	b.Addi(1, 1, -1)
	b.Bne(1, 0, "l")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mlpa.NewMachine(p, 0)
	if _, err := m.RunToCompletion(1 << 20); err != nil {
		t.Fatal(err)
	}
	if m.IntRegs[2] != 100 {
		t.Errorf("r2 = %d", m.IntRegs[2])
	}

	// Assembler path.
	p2, err := mlpa.Assemble("api2", "addi r1, r0, 5\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumBlocks() == 0 {
		t.Error("no blocks")
	}
	if _, err := mlpa.Assemble("bad", "junk"); err == nil || !strings.Contains(err.Error(), "unknown mnemonic") {
		t.Errorf("assembler error = %v", err)
	}
}

func TestPublicAPISuiteAndConfigs(t *testing.T) {
	if len(mlpa.Suite()) != 26 {
		t.Errorf("suite size = %d, want 26 (SPEC2000)", len(mlpa.Suite()))
	}
	a, b := mlpa.ConfigA(), mlpa.ConfigB()
	if a.Name != "A" || b.Name != "B" {
		t.Errorf("config names %q, %q", a.Name, b.Name)
	}
	if a.Caches.L2.TotalBytes >= b.Caches.L2.TotalBytes {
		t.Error("config B should have the larger L2")
	}
}
