// Package cache models the memory hierarchy of the detailed
// simulator: set-associative write-back caches with LRU replacement
// composed into an IL1/DL1 + unified-L2 hierarchy over main memory,
// with the hit/miss statistics the paper's Table II reports (L1 and L2
// hit rates).
package cache

import (
	"fmt"
	"slices"
)

// Config describes one cache level.
type Config struct {
	Name       string
	TotalBytes int64 // capacity
	Assoc      int   // ways; 1 = direct mapped
	BlockBytes int64
	Latency    int // access latency in cycles on a hit
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.TotalBytes <= 0 || c.Assoc <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %q: block size %d not a power of two", c.Name, c.BlockBytes)
	}
	sets := c.TotalBytes / (c.BlockBytes * int64(c.Assoc))
	if sets <= 0 {
		return fmt.Errorf("cache %q: capacity %d too small for %d-way, %dB blocks", c.Name, c.TotalBytes, c.Assoc, c.BlockBytes)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	if c.Latency < 1 {
		return fmt.Errorf("cache %q: latency %d < 1", c.Name, c.Latency)
	}
	return nil
}

// Stats holds access statistics for one level.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// Hits returns the hit count.
func (s Stats) Hits() uint64 { return s.Accesses - s.Misses }

// HitRate returns hits/accesses, or 1 when the level was never
// accessed (a never-touched cache cannot have missed).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits()) / float64(s.Accesses)
}

// MissRate returns 1 - HitRate.
func (s Stats) MissRate() float64 { return 1 - s.HitRate() }

// Cache is one set-associative write-back, write-allocate cache level.
type Cache struct {
	cfg      Config
	next     *Cache // nil for the last level
	memLat   int    // a last-level miss's main-memory latency
	setMask  int64
	blkShift uint
	tags     []int64 // sets*assoc; -1 = invalid
	dirty    []bool
	stamp    []uint64 // LRU timestamps
	clock    uint64
	stats    Stats

	// Touched-set bookkeeping, which bounds what CopyFrom and ResetCold
	// rewrite and is no part of the modelled state. used lists the sets
	// that may differ from New's state. touched lists the sets an
	// access or a reset changed since the cache's last copy, as source
	// or destination: the sets in which it can differ from partner, the
	// cache of that copy, beyond those partner touched itself. since is
	// the clock at the last copy or reset. An access stamps a line with
	// the clock, so a set holding a stamp above since is already in
	// touched, and the hit or victim line's own stamp settles that for
	// most accesses without a look at the lists (touch). inUsed and
	// inTouched are the lists' membership bitmaps.
	since     uint64
	used      []int32
	touched   []int32
	inUsed    []uint64
	inTouched []uint64
	partner   *Cache
}

// New builds a cache level whose misses next (the next-outer level)
// serves or, when next is nil, main memory in memLatency cycles.
func New(cfg Config, next *Cache, memLatency int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.TotalBytes / (cfg.BlockBytes * int64(cfg.Assoc))
	shift := uint(0)
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		shift++
	}
	n := int(sets) * cfg.Assoc
	c := &Cache{
		cfg:       cfg,
		next:      next,
		memLat:    memLatency,
		setMask:   sets - 1,
		blkShift:  shift,
		tags:      make([]int64, n),
		dirty:     make([]bool, n),
		stamp:     make([]uint64, n),
		inUsed:    make([]uint64, (sets+63)/64),
		inTouched: make([]uint64, (sets+63)/64),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c, nil
}

// Config returns the level configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes statistics without flushing contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// CopyFrom overwrites c's contents with src's — tags, dirty bits, LRU
// stamps and clock, and the statistics — reusing c's storage, so c
// continues exactly as src would, and returns the number of sets it
// rewrote. When c and src were last copied into each other, in either
// direction, only the sets either side touched since are rewritten:
// every other set still holds what that copy left in both. Otherwise
// every set is. src's architectural state is not modified. The
// configuration and next-level link are not copied. The two caches
// must have the same geometry.
func (c *Cache) CopyFrom(src *Cache) (int, error) {
	if len(c.tags) != len(src.tags) || c.cfg.Assoc != src.cfg.Assoc || c.blkShift != src.blkShift {
		return 0, fmt.Errorf("cache %q: copy from a %q cache of another geometry", c.cfg.Name, src.cfg.Name)
	}
	if c == src {
		return 0, nil
	}
	sets := 0
	if c.partner == src && src.partner == c {
		for _, s := range c.touched {
			c.copySet(src, s)
			sets++
		}
		for _, s := range src.touched {
			if !has(c.inTouched, s) {
				c.copySet(src, s)
				sets++
			}
		}
	} else {
		copy(c.tags, src.tags)
		copy(c.dirty, src.dirty)
		copy(c.stamp, src.stamp)
		c.used = append(c.used[:0], src.used...)
		copy(c.inUsed, src.inUsed)
		sets = int(c.setMask) + 1
		c.partner, src.partner = src, c
	}
	c.clock = src.clock
	c.stats = src.stats
	c.copied()
	src.copied()
	return sets, nil
}

// copySet copies set s's lines from src, keeping every set that may
// differ from New's state in c's used list.
func (c *Cache) copySet(src *Cache, s int32) {
	lo := int(s) * c.cfg.Assoc
	hi := lo + c.cfg.Assoc
	copy(c.tags[lo:hi], src.tags[lo:hi])
	copy(c.dirty[lo:hi], src.dirty[lo:hi])
	copy(c.stamp[lo:hi], src.stamp[lo:hi])
	if has(src.inUsed, s) && add(c.inUsed, s) {
		c.used = append(c.used, s)
	}
}

// copied empties touched after a copy: c and its partner now hold the
// same state.
func (c *Cache) copied() {
	for _, s := range c.touched {
		drop(c.inTouched, s)
	}
	c.touched = c.touched[:0]
	c.since = c.clock
}

// touch records an access to the set whose lines start at base, unless
// a line other than the accessed one, line (or -1 before a fill),
// already holds a stamp above since. It returns the hit latency.
func (c *Cache) touch(base, line int) int {
	for i := base; i < base+c.cfg.Assoc; i++ {
		if i != line && c.stamp[i] > c.since {
			return c.cfg.Latency
		}
	}
	c.record(int32(base / c.cfg.Assoc))
	return c.cfg.Latency
}

// record lists set s as touched and used.
func (c *Cache) record(s int32) {
	if add(c.inTouched, s) {
		c.touched = append(c.touched, s)
	}
	if add(c.inUsed, s) {
		c.used = append(c.used, s)
	}
}

// ResetCold returns c to the state New leaves — every line invalid,
// clean and unstamped, clock and statistics zero — and returns the
// number of sets it rewrote: only those used since c was last in that
// state. They count as touched, so a later CopyFrom between c and its
// partner stays exact.
func (c *Cache) ResetCold() int {
	for _, s := range c.used {
		lo := int(s) * c.cfg.Assoc
		hi := lo + c.cfg.Assoc
		for i := lo; i < hi; i++ {
			c.tags[i] = -1
		}
		clear(c.dirty[lo:hi])
		clear(c.stamp[lo:hi])
		drop(c.inUsed, s)
		if add(c.inTouched, s) {
			c.touched = append(c.touched, s)
		}
	}
	sets := len(c.used)
	c.used = c.used[:0]
	c.clock, c.since = 0, 0
	c.stats = Stats{}
	return sets
}

// has, add and drop read, set and clear set s's bit in a membership
// bitmap; add reports whether the bit was clear.
func has(bits []uint64, s int32) bool { return bits[s>>6]&(1<<(s&63)) != 0 }

func add(bits []uint64, s int32) bool {
	if has(bits, s) {
		return false
	}
	bits[s>>6] |= 1 << (s & 63)
	return true
}

func drop(bits []uint64, s int32) { bits[s>>6] &^= 1 << (s & 63) }

// Equal reports whether c and o hold the same modelled state: the
// configuration, every line's tag, dirty bit and LRU stamp, the clock
// and the statistics. Level links and touched-set bookkeeping, which
// record how the state was reached, are not compared.
func (c *Cache) Equal(o *Cache) bool {
	return c.cfg == o.cfg && c.clock == o.clock && c.stats == o.stats &&
		slices.Equal(c.tags, o.tags) && slices.Equal(c.dirty, o.dirty) && slices.Equal(c.stamp, o.stamp)
}

// Access looks up the block containing addr, filling on miss, and
// returns the total latency including the next level's or main
// memory's.
func (c *Cache) Access(addr int64, write bool) int {
	c.stats.Accesses++
	c.clock++
	block := addr >> c.blkShift
	set := block & c.setMask
	base := int(set) * c.cfg.Assoc

	victim := base
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if c.tags[i] == block {
			fresh := c.stamp[i] <= c.since
			c.stamp[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			if fresh {
				// Returning touch's result leaves nothing live across
				// the call, which keeps the common path free of spills.
				return c.touch(base, i)
			}
			return c.cfg.Latency
		}
		if c.stamp[i] < c.stamp[victim] {
			victim = i
		}
	}

	// Miss: fill from the next level, evicting the victim.
	if c.stamp[victim] <= c.since {
		c.touch(base, -1)
	}
	c.stats.Misses++
	if c.tags[victim] >= 0 && c.dirty[victim] {
		c.stats.Writebacks++
		// Write-back traffic is accounted but, as in sim-outorder's
		// default, does not add to the demand-miss latency (the
		// writeback buffer hides it).
	}
	lat := c.cfg.Latency
	if c.next != nil {
		lat += c.next.Access(addr, false)
	} else {
		lat += c.memLat
	}
	c.tags[victim] = block
	c.dirty[victim] = write
	c.stamp[victim] = c.clock
	return lat
}

// Hierarchy bundles the full memory system of one core.
type Hierarchy struct {
	IL1 *Cache
	DL1 *Cache
	L2  *Cache
}

// HierarchyConfig describes a complete memory system. Main memory has
// SimpleScalar's two-part latency: MemFirst cycles for the first 8-byte
// chunk of a requested L2 block and MemNext for each further one.
type HierarchyConfig struct {
	IL1      Config
	DL1      Config
	L2       Config
	MemFirst int
	MemNext  int
}

// NewHierarchy builds IL1 and DL1 sharing a unified L2 over memory.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	chunks := max(cfg.L2.BlockBytes/8, 1)
	l2, err := New(cfg.L2, nil, cfg.MemFirst+int(chunks-1)*cfg.MemNext)
	if err != nil {
		return nil, err
	}
	il1, err := New(cfg.IL1, l2, 0)
	if err != nil {
		return nil, err
	}
	dl1, err := New(cfg.DL1, l2, 0)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{IL1: il1, DL1: dl1, L2: l2}, nil
}

// CopyFrom overwrites every level of h with the matching level of src
// (see Cache.CopyFrom), reusing h's storage, and returns the number of
// sets it rewrote; h keeps its own level links. The hierarchies must
// have been built from the same configuration.
func (h *Hierarchy) CopyFrom(src *Hierarchy) (int, error) {
	var sets int
	for _, lv := range [...][2]*Cache{{h.IL1, src.IL1}, {h.DL1, src.DL1}, {h.L2, src.L2}} {
		n, err := lv[0].CopyFrom(lv[1])
		if err != nil {
			return 0, err
		}
		sets += n
	}
	return sets, nil
}

// Equal reports whether every level of h holds the same modelled state
// as o's (see Cache.Equal).
func (h *Hierarchy) Equal(o *Hierarchy) bool {
	return h.IL1.Equal(o.IL1) && h.DL1.Equal(o.DL1) && h.L2.Equal(o.L2)
}

// ResetCold returns every level of h to the state NewHierarchy leaves
// (see Cache.ResetCold) and returns the number of sets it rewrote.
func (h *Hierarchy) ResetCold() int {
	return h.IL1.ResetCold() + h.DL1.ResetCold() + h.L2.ResetCold()
}
