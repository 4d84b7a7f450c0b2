package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

// testMemLatency is main memory's latency for a 32-byte block: 150
// cycles for the first 8-byte chunk and 10 for each of the other three.
const testMemLatency = 150 + 3*10

// newTestCache builds a last-level cache over main memory.
func newTestCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg, nil, testMemLatency)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smallCache(t *testing.T, bytes int64, assoc int) *Cache {
	t.Helper()
	return newTestCache(t, Config{Name: "t", TotalBytes: bytes, Assoc: assoc, BlockBytes: 32, Latency: 1})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "ok", TotalBytes: 8192, Assoc: 2, BlockBytes: 32, Latency: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero", TotalBytes: 0, Assoc: 1, BlockBytes: 32, Latency: 1},
		{Name: "npot-block", TotalBytes: 8192, Assoc: 2, BlockBytes: 48, Latency: 1},
		{Name: "npot-sets", TotalBytes: 96, Assoc: 1, BlockBytes: 32, Latency: 1},
		{Name: "tiny", TotalBytes: 32, Assoc: 4, BlockBytes: 32, Latency: 1},
		{Name: "latency", TotalBytes: 8192, Assoc: 2, BlockBytes: 32, Latency: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted", c.Name)
		}
	}
	if _, err := New(bad[0], nil, testMemLatency); err == nil {
		t.Errorf("New accepted config %q", bad[0].Name)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := smallCache(t, 1024, 2)
	lat1 := c.Access(0x100, false)
	if lat1 <= 1 {
		t.Errorf("cold access latency %d, want miss latency > 1", lat1)
	}
	lat2 := c.Access(0x100, false)
	if lat2 != 1 {
		t.Errorf("second access latency %d, want 1 (hit)", lat2)
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Misses != 1 || s.Hits() != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameBlockDifferentWordsHit(t *testing.T) {
	c := smallCache(t, 1024, 2)
	c.Access(0x100, false)
	if lat := c.Access(0x118, false); lat != 1 { // same 32B block
		t.Errorf("same-block access latency %d, want 1", lat)
	}
	if lat := c.Access(0x120, false); lat == 1 { // next block
		t.Errorf("next-block access latency %d, want miss", lat)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 sets x 2 ways x 32B = 128 B. Blocks mapping to set 0 are
	// multiples of 64.
	c := smallCache(t, 128, 2)
	c.Access(0*64, false)   // set 0, block A
	c.Access(1*64+32, true) // set 1
	c.Access(2*64, false)   // set 0, block B
	c.Access(0*64, false)   // touch A: makes B the LRU
	c.Access(4*64, false)   // set 0, block C: evicts B
	if lat := c.Access(0*64, false); lat != 1 {
		t.Error("A evicted but should have been MRU")
	}
	if lat := c.Access(2*64, false); lat == 1 {
		t.Error("B still resident but should have been LRU-evicted")
	}
}

func TestWritebackCounted(t *testing.T) {
	c := smallCache(t, 64, 1) // 2 sets, direct mapped
	c.Access(0, true)         // dirty block in set 0
	c.Access(64, false)       // evicts dirty block
	if wb := c.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
	// Clean eviction: no writeback.
	c.Access(128, false)
	if wb := c.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d after clean eviction, want 1", wb)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := smallCache(t, 64, 1)
	// Two blocks mapping to the same set always conflict.
	for i := 0; i < 10; i++ {
		c.Access(0, false)
		c.Access(64, false)
	}
	s := c.Stats()
	if s.Misses != 20 {
		t.Errorf("misses = %d, want 20 (ping-pong)", s.Misses)
	}
}

// TestMemoryLatency: a last-level miss adds main memory's two-part
// latency, 150 cycles for the first 8-byte chunk of the L2 block and 10
// for each further one (one chunk for a block smaller than 8 bytes).
func TestMemoryLatency(t *testing.T) {
	for _, c := range []struct {
		block int64
		want  int
	}{{4, 150}, {8, 150}, {32, 180}, {64, 220}} {
		h, err := NewHierarchy(HierarchyConfig{
			IL1:      Config{Name: "il1", TotalBytes: 8 << 10, Assoc: 2, BlockBytes: 32, Latency: 1},
			DL1:      Config{Name: "dl1", TotalBytes: 16 << 10, Assoc: 4, BlockBytes: 32, Latency: 2},
			L2:       Config{Name: "ul2", TotalBytes: 1 << 20, Assoc: 4, BlockBytes: c.block, Latency: 20},
			MemFirst: 150,
			MemNext:  10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if lat := h.L2.Access(0, false); lat != 20+c.want {
			t.Errorf("%d-byte L2 block: miss latency = %d, want 20 + %d", c.block, lat, c.want)
		}
	}
}

func TestHierarchyComposition(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{
		IL1:      Config{Name: "il1", TotalBytes: 8 << 10, Assoc: 2, BlockBytes: 32, Latency: 1},
		DL1:      Config{Name: "dl1", TotalBytes: 16 << 10, Assoc: 4, BlockBytes: 32, Latency: 2},
		L2:       Config{Name: "ul2", TotalBytes: 1 << 20, Assoc: 4, BlockBytes: 32, Latency: 20},
		MemFirst: 150,
		MemNext:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cold DL1 access goes DL1 -> L2 -> memory.
	lat := h.DL1.Access(0x1000, false)
	want := 2 + 20 + 180
	if lat != want {
		t.Errorf("cold DL1 latency = %d, want %d", lat, want)
	}
	// Second access: DL1 hit.
	if lat := h.DL1.Access(0x1000, false); lat != 2 {
		t.Errorf("warm DL1 latency = %d, want 2", lat)
	}
	// IL1 miss to a block already in shared L2: no memory access.
	l2Misses := h.L2.Stats().Misses
	lat = h.IL1.Access(0x1000, false)
	if lat != 1+20 {
		t.Errorf("IL1 miss/L2 hit latency = %d, want 21", lat)
	}
	if h.L2.Stats().Misses != l2Misses {
		t.Error("L2 hit still accessed memory")
	}
}

func TestHitRateEdgeCases(t *testing.T) {
	var s Stats
	if s.HitRate() != 1 {
		t.Errorf("empty HitRate = %v, want 1", s.HitRate())
	}
	s = Stats{Accesses: 10, Misses: 4}
	if s.HitRate() != 0.6 {
		t.Errorf("HitRate = %v, want 0.6", s.HitRate())
	}
	if s.MissRate() != 0.4 {
		t.Errorf("MissRate = %v, want 0.4", s.MissRate())
	}
}

// Property: a cache with capacity >= working set never misses after
// the first pass, for any access pattern within the working set.
func TestNoCapacityMissesWithinWorkingSet(t *testing.T) {
	f := func(pattern []uint8) bool {
		c := newTestCache(t, Config{Name: "q", TotalBytes: 16 << 10, Assoc: 8, BlockBytes: 32, Latency: 1})
		// Warm all 256 possible blocks (8 KiB worth).
		for i := int64(0); i < 256; i++ {
			c.Access(i*32, false)
		}
		for _, p := range pattern {
			if lat := c.Access(int64(p)*32, false); lat != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: misses never exceed accesses; stats are monotone.
func TestStatsInvariant(t *testing.T) {
	f := func(addrs []int64, writes []bool) bool {
		c := newTestCache(t, Config{Name: "q", TotalBytes: 1 << 10, Assoc: 2, BlockBytes: 32, Latency: 1})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			if a < 0 {
				a = -a
			}
			c.Access(a, w)
		}
		s := c.Stats()
		return s.Misses <= s.Accesses && s.Accesses == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// copyHierarchyConfig keeps every level small enough that a short
// random stream evicts at all of them.
var copyHierarchyConfig = HierarchyConfig{
	IL1:      Config{Name: "il1", TotalBytes: 512, Assoc: 2, BlockBytes: 32, Latency: 1},
	DL1:      Config{Name: "dl1", TotalBytes: 1 << 10, Assoc: 4, BlockBytes: 32, Latency: 2},
	L2:       Config{Name: "ul2", TotalBytes: 4 << 10, Assoc: 4, BlockBytes: 64, Latency: 20},
	MemFirst: 150,
	MemNext:  10,
}

// driveHierarchy replays n pseudo-random instruction fetches, loads and
// stores (seeded by seed) and returns the latency sequence.
func driveHierarchy(h *Hierarchy, seed uint64, n int) []int {
	lats := make([]int, 0, n)
	x := seed
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := int64(x % (32 << 10))
		switch x >> 62 {
		case 0:
			lats = append(lats, h.IL1.Access(addr, false))
		case 1:
			lats = append(lats, h.DL1.Access(addr, true))
		default:
			lats = append(lats, h.DL1.Access(addr, false))
		}
	}
	return lats
}

// TestHierarchyCopyFrom: a copy of a warmed hierarchy equals the
// original — contents, stamps, clocks and statistics (Hierarchy.Equal;
// touched-set bookkeeping records history, not state) — and then answers
// a continued access stream exactly as the original does, while driving
// the copy leaves the original untouched. The subtest is named for LRU,
// the replacement every cache level uses.
func TestHierarchyCopyFrom(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		newH := func() *Hierarchy {
			h, err := NewHierarchy(copyHierarchyConfig)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		src, ref, dst := newH(), newH(), newH()
		driveHierarchy(src, 1, 5000)
		driveHierarchy(ref, 1, 5000)
		driveHierarchy(dst, 99, 300) // stale contents to overwrite
		if _, err := dst.CopyFrom(src); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(src) {
			t.Fatal("copy differs from its source")
		}
		if dst.IL1.next != dst.L2 || dst.DL1.next != dst.L2 || dst.L2.next != nil {
			t.Fatal("copy took over the source's level links")
		}
		got := driveHierarchy(dst, 7, 5000)
		want := driveHierarchy(ref, 7, 5000)
		if !reflect.DeepEqual(got, want) {
			t.Error("copy answers a continued stream differently from the original")
		}
		if !dst.Equal(ref) {
			t.Error("copy's state after the stream differs from the original's")
		}
		orig := newH()
		driveHierarchy(orig, 1, 5000)
		if !src.Equal(orig) {
			t.Error("driving the copy changed the source")
		}
	})
}

// TestCopyFromRejectsOtherGeometry: copying between caches of different
// shape fails instead of truncating.
func TestCopyFromRejectsOtherGeometry(t *testing.T) {
	a := smallCache(t, 1024, 2)
	b := smallCache(t, 2048, 2)
	if _, err := a.CopyFrom(b); err == nil {
		t.Error("copy between different capacities accepted")
	}
}
