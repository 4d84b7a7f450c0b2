package cpu

import (
	"fmt"
	"testing"

	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
)

// TestStoreRetention pins the store's bound by counts: one idle context
// per configuration, however many a configuration's runs released, and
// idle contexts for the maxIdleConfigs configurations released most
// recently, however many configurations ran.
func TestStoreRetention(t *testing.T) {
	var st store
	reg := obs.NewRegistry()
	counts := func() (built, reused int64) {
		return reg.Counter("cpu.contexts.built").Value(), reg.Counter("cpu.contexts.reused").Value()
	}
	acquire := func(cfg Config) *Sim {
		t.Helper()
		s, err := st.acquire(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		if s.Metrics != reg || s.cfg != cfg {
			t.Fatalf("acquired a context of %q with Metrics %p, want %q with %p", s.cfg.Name, s.Metrics, cfg.Name, reg)
		}
		return s
	}

	cfg := testConfig()
	a, b := acquire(cfg), acquire(cfg)
	st.release(a)
	st.release(b)
	if n := len(st.idle); n != 1 {
		t.Fatalf("two contexts of one configuration released: %d idle, want 1", n)
	}
	if a.Metrics != nil {
		t.Error("a released context keeps its run's registry")
	}
	if got := acquire(cfg); got != a {
		t.Error("acquire did not return the idle context of its configuration")
	}
	acquire(cfg)
	if built, reused := counts(); built != 3 || reused != 1 {
		t.Errorf("one configuration: built %d, reused %d; want 3 and 1", built, reused)
	}

	var cfgs []Config
	for i := 0; i <= maxIdleConfigs; i++ {
		c := testConfig()
		c.Name = fmt.Sprintf("store-%d", i)
		cfgs = append(cfgs, c)
		st.release(acquire(c))
	}
	if n := len(st.idle); n != maxIdleConfigs {
		t.Fatalf("%d configurations released: %d idle, want %d", len(cfgs), n, maxIdleConfigs)
	}
	built0, reused0 := counts()
	for _, c := range cfgs[1:] {
		acquire(c)
	}
	acquire(cfgs[0])
	if built, reused := counts(); built-built0 != 1 || reused-reused0 != int64(maxIdleConfigs) {
		t.Errorf("after %d configurations: built %d, reused %d; want 1 (the least recently released) and %d",
			len(cfgs), built-built0, reused-reused0, maxIdleConfigs)
	}
}

// TestAcquireReusedMatchesNew: a context that warmed, forked and ran
// windows, then went back to the store, comes out of it cold — equal to
// a new context in everything but the fork it keeps — without counting
// a reset in the new run's registry; and a window on it and on its
// reused fork gives the results a new context's do.
func TestAcquireReusedMatchesNew(t *testing.T) {
	forEachForkConfig(t, func(t *testing.T, p *prog.Program, cfg Config) {
		var st store
		// run warms s over [0, forkWarmA), runs one window on its fork
		// and one on s itself, and returns both results.
		run := func(s *Sim) [2]Result {
			t.Helper()
			m := emu.New(p, 0)
			if err := s.Warm(m, forkWarmA); err != nil {
				t.Fatal(err)
			}
			fork, err := s.Fork()
			if err != nil {
				t.Fatal(err)
			}
			var res [2]Result
			if res[0], err = fork.RunWindow(m.Clone(), forkLead, forkWindow, 0); err != nil {
				t.Fatal(err)
			}
			if res[1], err = s.RunWindow(m, forkLead, forkWindow, 0); err != nil {
				t.Fatal(err)
			}
			return res
		}
		first, err := st.acquire(cfg, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		want := run(first)
		fork := first.fork
		st.release(first)

		reg := obs.NewRegistry()
		s, err := st.acquire(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		if s != first || s.fork != fork {
			t.Fatal("the store did not hand back the released context with its fork")
		}
		fresh := MustNew(cfg)
		fresh.Metrics = reg
		if !sameSim(s, fresh) {
			t.Error("a reused context differs from a new one")
		}
		if n := reg.Counter("cpu.reset.calls").Value(); n != 0 {
			t.Errorf("cpu.reset.calls = %d after acquiring, want 0", n)
		}
		if got := run(s); got != want {
			t.Errorf("reused context and fork: %+v, new ones %+v", got, want)
		}
	})
}
