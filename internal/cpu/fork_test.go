package cpu

import (
	"reflect"
	"testing"

	"mlpa/internal/bpred"
	"mlpa/internal/cache"
	"mlpa/internal/emu"
	"mlpa/internal/prog"
)

// forkProgram mixes everything the warm structures remember: pseudo-
// random loads and stores over 128 KiB (evictions at every cache level
// of forkConfig, so the replacement policy decides victims), a data-
// dependent conditional branch, and calls and returns (BTB and RAS).
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

// forkConfig is testConfig with small caches under one replacement
// policy and the given direction predictor.
func forkConfig(kind bpred.Kind, pol cache.Replacement) Config {
	cfg := testConfig()
	cfg.Name = string(kind) + "/" + string(pol)
	cfg.Predictor = kind
	cfg.BHTEntries = 1024
	cfg.Caches.IL1 = cache.Config{Name: "il1", TotalBytes: 1 << 10, Assoc: 2, BlockBytes: 32, Latency: 1, Policy: pol}
	cfg.Caches.DL1 = cache.Config{Name: "dl1", TotalBytes: 2 << 10, Assoc: 4, BlockBytes: 32, Latency: 2, Policy: pol}
	cfg.Caches.L2 = cache.Config{Name: "ul2", TotalBytes: 16 << 10, Assoc: 4, BlockBytes: 64, Latency: 12, Policy: pol}
	return cfg
}

var (
	forkKinds = []bpred.Kind{bpred.KindCombined, bpred.KindBimodal, bpred.KindGShare, bpred.KindPAg,
		bpred.KindTaken, bpred.KindNotTaken, bpred.KindPerfect}
	forkPolicies = []cache.Replacement{cache.LRU, cache.FIFO, cache.Random}
)

// forEachForkConfig runs f once per (predictor kind, replacement
// policy) pair.
func forEachForkConfig(t *testing.T, f func(t *testing.T, p *prog.Program, cfg Config)) {
	p, err := prog.Assemble("fork", forkProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range forkKinds {
		for _, pol := range forkPolicies {
			cfg := forkConfig(kind, pol)
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
// load/store queue, register producers and counters all start over.
func TestForkIntoReusedContext(t *testing.T) {
	forEachForkConfig(t, func(t *testing.T, p *prog.Program, cfg Config) {
		m, spine := warmedAt(t, p, cfg, forkWarmA)
		used := MustNew(cfg)
		um := emu.New(p, 0)
		if _, err := used.RunWindow(um, 0, forkWindow, 0); err != nil {
			t.Fatal(err)
		}
		fork, err := spine.ForkInto(used)
		if err != nil {
			t.Fatal(err)
		}
		if fork != used {
			t.Error("ForkInto allocated although dst fits the configuration")
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
			t.Errorf("reused fork result %+v, fresh context %+v", got, want)
		}
		if !reflect.DeepEqual(fork, fresh) {
			t.Error("reused fork's state after the window differs from the fresh context's")
		}
	})
}

// TestForkNeverRunIntoUsedContext: a chunk's later spine starts fork a
// never-run context into the previous spine's dead one. The result warms
// and runs a window exactly as MustNew(cfg) does, and the never-run
// source is left as MustNew(cfg) made it. (TestForkIntoReusedContext
// covers reuse from a warmed source.)
func TestForkNeverRunIntoUsedContext(t *testing.T) {
	forEachForkConfig(t, func(t *testing.T, p *prog.Program, cfg Config) {
		m, used := warmedAt(t, p, cfg, forkWarmA)
		if _, err := used.RunWindow(m, forkLead, forkWindow, forkTail); err != nil {
			t.Fatal(err)
		}
		cold := MustNew(cfg)
		s, err := cold.ForkInto(used)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, MustNew(cfg)) {
			t.Error("forking changed the never-run context")
		}
		fresh := MustNew(cfg)
		var res [2]Result
		for i, sim := range []*Sim{s, fresh} {
			m := emu.New(p, 0)
			if err := sim.Warm(m, forkWarmB); err != nil {
				t.Fatal(err)
			}
			if res[i], err = sim.RunWindow(m, forkLead, forkWindow, forkTail); err != nil {
				t.Fatal(err)
			}
		}
		if res[0] != res[1] || !reflect.DeepEqual(s, fresh) {
			t.Errorf("restarted context's result %+v, new context %+v, or its state after the window differs", res[0], res[1])
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
	_, spine := warmedAt(t, p, forkConfig(bpred.KindGShare, cache.LRU), forkWarmA)
	other := MustNew(forkConfig(bpred.KindBimodal, cache.FIFO))
	fork, err := spine.ForkInto(other)
	if err != nil {
		t.Fatal(err)
	}
	if fork == other || fork.Config() != spine.Config() || !sameWarmState(fork, spine) {
		t.Error("fork into another configuration's context did not yield a fresh copy of the spine")
	}
}
