package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// touchedConfigs covers a set-associative, a fully associative and a
// direct-mapped level, each small enough for a short stream to touch
// most sets and evict.
var touchedConfigs = []Config{
	{Name: "sa", TotalBytes: 1 << 10, Assoc: 2, BlockBytes: 32, Latency: 1},
	{Name: "fa", TotalBytes: 128, Assoc: 4, BlockBytes: 32, Latency: 1},
	{Name: "dm", TotalBytes: 2 << 10, Assoc: 1, BlockBytes: 32, Latency: 1},
}

// TestTouchedSetCopiesMatchFullCopies drives a pool of caches through
// random interleavings of access streams, ResetCold, and copies between
// members, paired (the two were each other's last copy, so only touched
// sets move) and unpaired, and a twin pool through the same steps with
// only full copies and New. After every step each cache must hold its
// twin's tags, dirty bits, LRU stamps, clock and statistics.
func TestTouchedSetCopiesMatchFullCopies(t *testing.T) {
	for _, cfg := range touchedConfigs {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				testTouchedSetCopies(t, cfg, seed)
			})
		}
	}
}

func testTouchedSetCopies(t *testing.T, cfg Config, seed int64) {
	const pool, steps = 3, 300
	live, twin := make([]*Cache, pool), make([]*Cache, pool)
	for i := range live {
		live[i], twin[i] = newTestCache(t, cfg), newTestCache(t, cfg)
	}
	sets := int(cfg.TotalBytes / (cfg.BlockBytes * int64(cfg.Assoc)))
	rng := rand.New(rand.NewSource(seed))
	lastDst, lastSrc := 0, 1
	paired := 0
	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.Intn(10); {
		case op < 5:
			// An access stream, over a few blocks (a detail window's
			// footprint) or the whole cache and beyond.
			i := rng.Intn(pool)
			span := int64(4)
			if rng.Intn(2) == 0 {
				span = int64(4 * sets * cfg.Assoc)
			}
			base := rng.Int63n(int64(8 * sets * cfg.Assoc))
			n := 1 + rng.Intn(24)
			for j := 0; j < n; j++ {
				addr := (base + rng.Int63n(span)) * cfg.BlockBytes
				write := rng.Intn(3) == 0
				live[i].Access(addr, write)
				twin[i].Access(addr, write)
			}
			what = fmt.Sprintf("%d accesses to cache %d", n, i)
		case op < 6:
			i := rng.Intn(pool)
			live[i].ResetCold()
			twin[i] = newTestCache(t, cfg)
			what = fmt.Sprintf("ResetCold of cache %d", i)
		default:
			// Mostly the last pair again, in either direction, as a
			// spine forks into its detail context; otherwise any pair.
			d, s := lastDst, lastSrc
			switch rng.Intn(4) {
			case 0:
				d, s = rng.Intn(pool), rng.Intn(pool)
			case 1:
				d, s = s, d
			}
			wasPaired := d != s && live[d].partner == live[s] && live[s].partner == live[d]
			n, err := live[d].CopyFrom(live[s])
			if err != nil {
				t.Fatal(err)
			}
			twin[d].partner = nil // force the full copy
			if _, err := twin[d].CopyFrom(twin[s]); err != nil {
				t.Fatal(err)
			}
			if wasPaired {
				paired++
			} else if d != s && n != sets {
				t.Fatalf("step %d: unpaired copy rewrote %d sets, want all %d", step, n, sets)
			}
			lastDst, lastSrc = d, s
			what = fmt.Sprintf("copy %d <- %d (paired %v, %d sets)", d, s, wasPaired, n)
		}
		for i := range live {
			if !live[i].Equal(twin[i]) {
				t.Fatalf("step %d (%s): cache %d differs from its full-copy twin", step, what, i)
			}
		}
	}
	if paired == 0 {
		t.Error("no paired copy ran")
	}
}

// TestPairedCopyCopiesOnlyTouchedSets: right after a copy, copying
// again in either direction rewrites nothing, and after accesses on
// both sides it rewrites exactly the sets they touched, each once.
func TestPairedCopyCopiesOnlyTouchedSets(t *testing.T) {
	cfg := touchedConfigs[0]
	a, b := newTestCache(t, cfg), newTestCache(t, cfg)
	for addr := int64(0); addr < 1<<12; addr += 32 {
		a.Access(addr, addr%96 == 0)
	}
	if n, _ := b.CopyFrom(a); n != 16 {
		t.Fatalf("first copy rewrote %d sets, want all 16", n)
	}
	for _, dir := range [][2]*Cache{{b, a}, {a, b}} {
		if n, _ := dir[0].CopyFrom(dir[1]); n != 0 {
			t.Errorf("repeated copy rewrote %d sets, want 0", n)
		}
	}
	a.Access(0, true)  // set 0
	a.Access(32, true) // set 1
	b.Access(32, true) // set 1
	b.Access(32, false)
	b.Access(64, false) // set 2
	if n, _ := b.CopyFrom(a); n != 3 || !b.Equal(a) {
		t.Errorf("paired copy rewrote %d sets, want 3, equal %v", n, b.Equal(a))
	}
	// A reset counts its sets as touched once, however often they are
	// accessed again before the next copy.
	b.ResetCold()
	b.Access(0, false)
	b.Access(4096, false)
	if n, _ := a.CopyFrom(b); n != 16 || !a.Equal(b) {
		t.Errorf("paired copy after a reset rewrote %d sets, want the 16 reset, equal %v", n, a.Equal(b))
	}
}

// TestResetColdMatchesNew: after any stream and copies, ResetCold
// leaves exactly the state New does and rewrites only the sets used
// since the cache was last cold.
func TestResetColdMatchesNew(t *testing.T) {
	h, err := NewHierarchy(copyHierarchyConfig)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewHierarchy(copyHierarchyConfig)
	if err != nil {
		t.Fatal(err)
	}
	driveHierarchy(other, 3, 2000)
	if _, err := h.CopyFrom(other); err != nil {
		t.Fatal(err)
	}
	driveHierarchy(h, 5, 40)
	want := 0
	for _, c := range []*Cache{h.IL1, h.DL1, h.L2} {
		for s := 0; s <= int(c.setMask); s++ {
			for w := 0; w < c.cfg.Assoc; w++ {
				if c.tags[s*c.cfg.Assoc+w] >= 0 {
					want++
					break
				}
			}
		}
	}
	if n := h.ResetCold(); n != want {
		t.Errorf("ResetCold rewrote %d sets, want the %d holding lines", n, want)
	}
	cold, err := NewHierarchy(copyHierarchyConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(cold) {
		t.Error("reset hierarchy differs from a new one")
	}
	if n := h.ResetCold(); n != 0 {
		t.Errorf("second ResetCold rewrote %d sets, want 0", n)
	}
}
