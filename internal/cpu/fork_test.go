package cpu

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mlpa/internal/bpred"
	"mlpa/internal/cache"
	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
)

// forkProgram mixes everything the warm structures remember: pseudo-
// random loads and stores over 128 KiB (evictions at every cache level
// of forkConfig, so LRU decides victims), a data-dependent conditional
// branch, and calls and returns (BTB and RAS).
const forkProgram = `
    addi r9, r0, 4000
    addi r5, r0, 12345
outer:
    shli r6, r5, 13
    xor  r5, r5, r6
    shri r6, r5, 7
    xor  r5, r5, r6
    shli r6, r5, 17
    xor  r5, r5, r6
    shri r8, r5, 20
    andi r8, r8, 16383
    shli r8, r8, 3
    ld   r2, 0(r8)
    add  r2, r2, r5
    st   r2, 8(r8)
    andi r7, r5, 3
    beq  r7, r0, skip
    jal  r31, fn
skip:
    addi r9, r9, -1
    bne  r9, r0, outer
    halt
fn:
    ld   r3, 64(r8)
    addi r3, r3, 1
    st   r3, 64(r8)
    jr   r31
`

// forkConfig is testConfig with small caches and the given direction
// predictor over bht entries.
func forkConfig(kind bpred.Kind, bht int) Config {
	cfg := testConfig()
	cfg.Name = fmt.Sprintf("%s/bht%d", kind, bht)
	cfg.Predictor = kind
	cfg.BHTEntries = bht
	cfg.Caches.IL1 = cache.Config{Name: "il1", TotalBytes: 1 << 10, Assoc: 2, BlockBytes: 32, Latency: 1}
	cfg.Caches.DL1 = cache.Config{Name: "dl1", TotalBytes: 2 << 10, Assoc: 4, BlockBytes: 32, Latency: 2}
	cfg.Caches.L2 = cache.Config{Name: "ul2", TotalBytes: 16 << 10, Assoc: 4, BlockBytes: 64, Latency: 12}
	return cfg
}

var (
	forkKinds = []bpred.Kind{bpred.KindCombined, bpred.KindBimodal}
	// forkBHTEntries gives each kind a mispredict-light front end and a
	// mispredict-heavy one, whose two counters every branch aliases.
	forkBHTEntries = []int{1024, 2}
)

// forEachForkConfig runs f once per (predictor kind, BHT entries)
// pair.
func forEachForkConfig(t *testing.T, f func(t *testing.T, p *prog.Program, cfg Config)) {
	p, err := prog.Assemble("fork", forkProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range forkKinds {
		for _, bht := range forkBHTEntries {
			cfg := forkConfig(kind, bht)
			t.Run(cfg.Name, func(t *testing.T) { f(t, p, cfg) })
		}
	}
}

// warmedAt returns a new machine at instruction warm and a new context
// warmed over [0, warm).
func warmedAt(t *testing.T, p *prog.Program, cfg Config, warm uint64) (*emu.Machine, *Sim) {
	t.Helper()
	m := emu.New(p, 0)
	s := MustNew(cfg)
	if err := s.Warm(m, warm); err != nil {
		t.Fatal(err)
	}
	return m, s
}

// sameWarmState reports whether two contexts hold identical warm
// state: cache lines, LRU stamps, clocks and statistics
// (cache.Hierarchy.Equal, which leaves out the caches' touched-set
// bookkeeping: it records how the state was reached, not the state),
// predictor tables and history, BTB, RAS, branch statistics and the
// fetch-block register.
func sameWarmState(a, b *Sim) bool {
	return a.hier.Equal(b.hier) && reflect.DeepEqual(a.bu, b.bu) && a.lastFetchBlock == b.lastFetchBlock
}

// sameSim reports whether two contexts hold identical state: their
// warm state (sameWarmState) and every other field, pipeline and
// counters included, as reflect.DeepEqual compares them. The detail
// fork a context keeps is storage for Fork, not state of its own, and
// an emptied load/store queue equals one never filled.
func sameSim(a, b *Sim) bool {
	ac, bc := *a, *b
	ac.hier, bc.hier = nil, nil
	ac.fork, bc.fork = nil, nil
	ac.memq, bc.memq = nil, nil
	return sameWarmState(a, b) && slices.Equal(a.memq, b.memq) && reflect.DeepEqual(ac, bc)
}

const (
	forkWarmA  = 20000
	forkWarmB  = 17000
	forkLead   = 512
	forkWindow = 8000
	forkTail   = 256
)

// TestWarmSplitInvariance: warming a then b instructions leaves exactly
// the state warming a+b does, the property that lets a spine warm from
// boundary to boundary.
func TestWarmSplitInvariance(t *testing.T) {
	forEachForkConfig(t, func(t *testing.T, p *prog.Program, cfg Config) {
		m, split := warmedAt(t, p, cfg, forkWarmA)
		if err := split.Warm(m, forkWarmB); err != nil {
			t.Fatal(err)
		}
		_, whole := warmedAt(t, p, cfg, forkWarmA+forkWarmB)
		if !sameWarmState(split, whole) {
			t.Error("Warm(a) then Warm(b) differs from Warm(a+b)")
		}
	})
}

// TestForkMatchesFreshContext: a fork of a warmed spine simulates a
// window exactly as a new context warmed over the same history does,
// and running the fork leaves the spine's tables untouched.
func TestForkMatchesFreshContext(t *testing.T) {
	forEachForkConfig(t, func(t *testing.T, p *prog.Program, cfg Config) {
		m, spine := warmedAt(t, p, cfg, forkWarmA)
		_, before := warmedAt(t, p, cfg, forkWarmA)
		fork, err := spine.Fork()
		if err != nil {
			t.Fatal(err)
		}
		got, err := fork.RunWindow(m, forkLead, forkWindow, forkTail)
		if err != nil {
			t.Fatal(err)
		}
		fm, fresh := warmedAt(t, p, cfg, forkWarmA)
		want, err := fresh.RunWindow(fm, forkLead, forkWindow, forkTail)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("fork result %+v, fresh context %+v", got, want)
		}
		if !sameSim(fork, fresh) {
			t.Error("fork's state after the window differs from the fresh context's")
		}
		if !sameWarmState(spine, before) {
			t.Error("running the fork changed the spine's warm state")
		}
	})
}

// TestForkIntoReusedContext: forking again after the fork ran a window
// of its own reuses the fork's storage and leaves no pipeline state
// behind — ROB, load/store queue, register producers and counters all
// start over — and leaves the source as it was. There are two sources:
// a spine warmed over [0, forkWarmA), whose fork runs a window at once,
// and a never-run context, whose fork first warms forkWarmB
// instructions. Either fork's result and state after the window match a
// new context's with the same history.
func TestForkIntoReusedContext(t *testing.T) {
	forEachForkConfig(t, func(t *testing.T, p *prog.Program, cfg Config) {
		// source returns a machine at instruction warm and a context
		// warmed over [0, warm); warm 0 is a never-run context.
		source := func(warm uint64) (*emu.Machine, *Sim) {
			if warm == 0 {
				return emu.New(p, 0), MustNew(cfg)
			}
			return warmedAt(t, p, cfg, warm)
		}
		for _, c := range []struct {
			name            string
			warm, warmAfter uint64
		}{
			{"warmed-spine", forkWarmA, 0},
			{"never-run", 0, forkWarmB},
		} {
			t.Run(c.name, func(t *testing.T) {
				m, src := source(c.warm)
				_, before := source(c.warm)
				used, err := src.Fork()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := used.RunWindow(emu.New(p, 0), 0, forkWindow, 0); err != nil {
					t.Fatal(err)
				}
				fork, err := src.Fork()
				if err != nil {
					t.Fatal(err)
				}
				if fork != used {
					t.Error("Fork allocated although the source already has a fork")
				}
				if !sameSim(src, before) {
					t.Error("forking changed the source")
				}
				fm, fresh := source(c.warm)
				var res [2]Result
				for i, run := range []struct {
					m *emu.Machine
					s *Sim
				}{{m, fork}, {fm, fresh}} {
					if c.warmAfter > 0 {
						if err := run.s.Warm(run.m, c.warmAfter); err != nil {
							t.Fatal(err)
						}
					}
					if res[i], err = run.s.RunWindow(run.m, forkLead, forkWindow, forkTail); err != nil {
						t.Fatal(err)
					}
				}
				if res[0] != res[1] {
					t.Errorf("reused fork result %+v, fresh context %+v", res[0], res[1])
				}
				if !sameSim(fork, fresh) {
					t.Error("reused fork's state after the window differs from the fresh context's")
				}
			})
		}
	})
}

// TestForkAndResetReuseTouchedSets follows one spine and its detail
// context through the pipeline's pattern: fork and run a window, warm
// the spine further and fork into the same context again (a paired
// copy of the touched sets only), then reset the spine in place, warm
// a new window from elsewhere and fork once more. Every window's
// result and the fork's state after it match a new context warmed over
// the same history, the reset spine matches a new context, and the
// counters count each call.
func TestForkAndResetReuseTouchedSets(t *testing.T) {
	forEachForkConfig(t, func(t *testing.T, p *prog.Program, cfg Config) {
		reg := obs.NewRegistry()
		m, spine := warmedAt(t, p, cfg, forkWarmA)
		spine.Metrics = reg
		// window forks the spine, runs a window of n instructions on a
		// clone of m, and compares with a new context warmed over
		// [from, m.Insts).
		window := func(step string, from, n uint64) {
			t.Helper()
			fork, err := spine.Fork()
			if err != nil {
				t.Fatal(err)
			}
			got, err := fork.RunWindow(m.Clone(), forkLead, n, forkTail)
			if err != nil {
				t.Fatal(err)
			}
			fm := emu.New(p, 0)
			if _, err := fm.RunTo(context.Background(), from); err != nil {
				t.Fatal(err)
			}
			fresh := MustNew(cfg)
			if err := fresh.Warm(fm, m.Insts-from); err != nil {
				t.Fatal(err)
			}
			fresh.Metrics = reg
			want, err := fresh.RunWindow(fm, forkLead, n, forkTail)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s: fork result %+v, fresh context %+v", step, got, want)
			}
			if !sameSim(fork, fresh) {
				t.Errorf("%s: fork's state after the window differs from the fresh context's", step)
			}
		}
		window("first fork", 0, forkWindow)
		if err := spine.Warm(m, 300); err != nil {
			t.Fatal(err)
		}
		// A short window leaves the fork's other sets as the paired copy
		// left them, so the next fork must copy the sets the spine's
		// reset rewrote.
		window("paired fork", 0, 64)

		spine.ResetCold()
		cold := MustNew(cfg)
		cold.Metrics = reg
		if !sameSim(spine, cold) {
			t.Fatal("reset spine differs from a new context")
		}
		from := m.Insts + 5000
		if _, err := m.RunTo(context.Background(), from); err != nil {
			t.Fatal(err)
		}
		// A short warm leaves most of the sets the reset rewrote
		// untouched, so the fork must copy them as the reset left them.
		if err := spine.Warm(m, 300); err != nil {
			t.Fatal(err)
		}
		window("fork after reset", from, forkWindow)

		if n := reg.Counter("cpu.fork.calls").Value(); n != 3 {
			t.Errorf("cpu.fork.calls = %d, want 3", n)
		}
		if n := reg.Counter("cpu.reset.calls").Value(); n != 1 {
			t.Errorf("cpu.reset.calls = %d, want 1", n)
		}
		if reg.Counter("cpu.fork.sets").Value() == 0 || reg.Counter("cpu.reset.sets").Value() == 0 {
			t.Error("cpu.fork.sets or cpu.reset.sets stayed 0")
		}
	})
}
