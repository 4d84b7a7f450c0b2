package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"mlpa/internal/bpred"
	"mlpa/internal/cache"
	"mlpa/internal/emu"
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

// sameWarmState reports whether two contexts hold identical caches,
// branch units and fetch-block registers.
func sameWarmState(a, b *Sim) bool {
	return reflect.DeepEqual(a.hier, b.hier) && reflect.DeepEqual(a.bu, b.bu) && a.lastFetchBlock == b.lastFetchBlock
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
		fork, err := spine.ForkInto(nil)
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
		if !reflect.DeepEqual(fork, fresh) {
			t.Error("fork's state after the window differs from the fresh context's")
		}
		if !sameWarmState(spine, before) {
			t.Error("running the fork changed the spine's warm state")
		}
	})
}

// TestForkIntoReusedContext: forking into a context that already ran a
// window reuses its storage and leaves no pipeline state behind — ROB,
// load/store queue, register producers and counters all start over —
// and leaves the source as it was. There are two sources: a spine
// warmed over [0, forkWarmA), whose fork runs a window at once, and a
// never-run context, as when a chunk's later spine start forks one into
// the previous spine's dead context, whose fork first warms forkWarmB
// instructions. Either fork's result and state after the window match
// a new context's with the same history.
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
				used := MustNew(cfg)
				if _, err := used.RunWindow(emu.New(p, 0), 0, forkWindow, 0); err != nil {
					t.Fatal(err)
				}
				fork, err := src.ForkInto(used)
				if err != nil {
					t.Fatal(err)
				}
				if fork != used {
					t.Error("ForkInto allocated although dst fits the configuration")
				}
				if !reflect.DeepEqual(src, before) {
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
				if !reflect.DeepEqual(fork, fresh) {
					t.Error("reused fork's state after the window differs from the fresh context's")
				}
			})
		}
	})
}

// TestForkIntoOtherConfig: a dst built for another configuration is
// replaced, never partially overwritten.
func TestForkIntoOtherConfig(t *testing.T) {
	p, err := prog.Assemble("fork", forkProgram)
	if err != nil {
		t.Fatal(err)
	}
	_, spine := warmedAt(t, p, forkConfig(bpred.KindCombined, 1024), forkWarmA)
	other := MustNew(forkConfig(bpred.KindBimodal, 2))
	fork, err := spine.ForkInto(other)
	if err != nil {
		t.Fatal(err)
	}
	if fork == other || fork.Config() != spine.Config() || !sameWarmState(fork, spine) {
		t.Error("fork into another configuration's context did not yield a fresh copy of the spine")
	}
}
