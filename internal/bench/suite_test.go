package bench

import (
	"testing"

	"mlpa/internal/coasts"
	"mlpa/internal/emu"
)

func TestSuiteCatalog(t *testing.T) {
	suite := Suite()
	if len(suite) < 12 {
		t.Fatalf("suite has %d benchmarks, want >= 12", len(suite))
	}
	seen := map[string]bool{}
	for _, s := range suite {
		if seen[s.Name] {
			t.Errorf("duplicate benchmark %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	// Paper-reported traits present.
	for _, want := range []struct {
		name   string
		phases int
		pos    float64
	}{
		{"gzip", 4, 0.08},
		{"equake", 6, 0.12},
		{"fma3d", 5, 0.10},
		{"gcc", 3, 0.86},
		{"art", 3, 0.47},
		{"bzip2", 3, 0.36},
	} {
		s, err := ByName(want.name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Phases != want.phases {
			t.Errorf("%s phases = %d, want %d", want.name, s.Phases, want.phases)
		}
		if s.LastPhasePos != want.pos {
			t.Errorf("%s last pos = %v, want %v", want.name, s.LastPhasePos, want.pos)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) succeeded")
	}
	if len(Names()) != len(suite) {
		t.Error("Names length mismatch")
	}
	if s, err := ByName("gcc"); err != nil || s.Iterations != 56 {
		t.Errorf("gcc iterations = %d, want 56 (paper)", s.Iterations)
	}
}

func TestAllProgramsBuildAndRun(t *testing.T) {
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p, err := s.Program(SizeTiny)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			m := emu.New(p, 0)
			n, err := m.RunToCompletion(1 << 28)
			if err != nil {
				t.Fatal(err)
			}
			if n < 50_000 {
				t.Errorf("%s ran only %d instructions", s.Name, n)
			}
			if n > 5_000_000 {
				t.Errorf("%s ran %d instructions at tiny size", s.Name, n)
			}
		})
	}
}

func TestProgramCaching(t *testing.T) {
	s, _ := ByName("gzip")
	p1 := s.MustProgram(SizeTiny)
	p2 := s.MustProgram(SizeTiny)
	if p1 != p2 {
		t.Error("Program not cached")
	}
	p3 := s.MustProgram(SizeSmall)
	if p1 == p3 {
		t.Error("different sizes share a program")
	}
	if p, err := Program("gzip", SizeTiny); err != nil || p != p1 {
		t.Errorf("Program(gzip) = %p, %v; want the spec's cached %p", p, err, p1)
	}
	if _, err := Program("bogus", SizeTiny); err == nil {
		t.Error("Program(bogus) succeeded")
	}
}

func TestOuterLoopDiscovered(t *testing.T) {
	// The dynamic loop profiler must rediscover the generated outer
	// loop as the dominant cyclic structure for every benchmark.
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p := s.MustProgram(SizeTiny)
			m := emu.New(p, 0)
			lp := emu.NewLoopProfiler(m)
			m.Branch = lp.OnBranch
			if _, err := m.RunToCompletion(1 << 28); err != nil {
				t.Fatal(err)
			}
			lp.Finish()
			sel := lp.SelectCoarse(m.Insts, 0.01)
			if sel == nil {
				t.Fatal("no coarse structure found")
			}
			if sel.Head != OuterLoopHead(p) {
				t.Errorf("selected head %d, want outer loop %d", sel.Head, OuterLoopHead(p))
			}
			wantIters := uint64(s.Iterations)
			if sel.Iterations != wantIters {
				t.Errorf("iterations = %d, want %d", sel.Iterations, wantIters)
			}
		})
	}
}

func TestGccDominantIteration(t *testing.T) {
	s, _ := ByName("gcc")
	p := s.MustProgram(SizeTiny)
	bd, err := coasts.CollectBoundaries(p, coasts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := bd.Structure
	if st == nil {
		t.Fatal("no structure")
	}
	// The giant iteration should account for ~60% of execution.
	frac := float64(st.MaxIter) / float64(bd.TotalInsts)
	if frac < 0.5 || frac > 0.7 {
		t.Errorf("dominant iteration fraction = %v, want ~0.6", frac)
	}
}

func TestLastPhasePositions(t *testing.T) {
	// The script-declared first-appearance position of the last phase
	// must match the generated program (within tolerance), for the
	// benchmarks whose positions the paper calls out.
	for _, name := range []string{"gcc", "art", "bzip2"} {
		s, _ := ByName(name)
		p := s.MustProgram(SizeTiny)
		plan, _, _, err := coasts.Select(p, coasts.Config{Seed: 1, Kmax: int64ToInt(int64(s.Phases))})
		if err != nil {
			t.Fatal(err)
		}
		got := plan.LastPosition()
		if diff := got - s.LastPhasePos; diff > 0.15 || diff < -0.15 {
			t.Errorf("%s last point position = %v, spec %v", name, got, s.LastPhasePos)
		}
	}
}

func int64ToInt(v int64) int { return int(v) }

func TestFineIntervalAndScale(t *testing.T) {
	if FineInterval(SizeTiny) >= FineInterval(SizeSmall) || FineInterval(SizeSmall) >= FineInterval(SizeRef) {
		t.Error("fine intervals not increasing with size")
	}
	if NominalPerInst(SizeTiny) <= NominalPerInst(SizeRef) {
		t.Error("nominal scale should shrink as size grows")
	}
	if got := NominalPerInst(SizeRef) * float64(FineInterval(SizeRef)); got != 10e6 {
		t.Errorf("fine interval maps to %v nominal, want 10M", got)
	}
}

func TestSizesOrdering(t *testing.T) {
	s, _ := ByName("swim")
	var prev uint64
	for _, size := range []Size{SizeTiny, SizeSmall, SizeRef} {
		p := s.MustProgram(size)
		m := emu.New(p, 0)
		n, err := m.RunToCompletion(1 << 30)
		if err != nil {
			t.Fatal(err)
		}
		if n <= prev {
			t.Errorf("size %v ran %d instructions, not more than %d", size, n, prev)
		}
		prev = n
	}
}

func TestSizeString(t *testing.T) {
	if SizeTiny.String() != "tiny" || SizeSmall.String() != "small" || SizeRef.String() != "ref" {
		t.Error("Size.String labels wrong")
	}
	if Size(9).String() == "" {
		t.Error("unknown size has empty label")
	}
	for _, s := range []Size{SizeTiny, SizeSmall, SizeRef} {
		if got, err := ParseSize(s.String()); got != s || err != nil {
			t.Errorf("ParseSize(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Error("ParseSize accepted an unknown size")
	}
}
