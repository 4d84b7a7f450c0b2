// Package cache models the memory hierarchy of the detailed
// simulator: set-associative write-back caches with LRU replacement
// composed into an IL1/DL1 + unified-L2 + main-memory hierarchy, with
// the hit/miss statistics the paper's Table II reports (L1 and L2 hit
// rates).
package cache

import "fmt"

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

// Level is anything that can service a block access: a cache or main
// memory.
type Level interface {
	// Access services a read or write of the block containing addr and
	// returns the total latency in cycles.
	Access(addr int64, write bool) int
	// Name identifies the level.
	Name() string
}

// Cache is one set-associative write-back, write-allocate cache level.
type Cache struct {
	cfg      Config
	next     Level
	setMask  int64
	blkShift uint
	tags     []int64 // sets*assoc; -1 = invalid
	dirty    []bool
	stamp    []uint64 // LRU timestamps
	clock    uint64
	stats    Stats
}

// New builds a cache level backed by next (the next-outer level).
func New(cfg Config, next Level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("cache %q: nil next level", cfg.Name)
	}
	sets := cfg.TotalBytes / (cfg.BlockBytes * int64(cfg.Assoc))
	shift := uint(0)
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		shift++
	}
	n := int(sets) * cfg.Assoc
	c := &Cache{
		cfg:      cfg,
		next:     next,
		setMask:  sets - 1,
		blkShift: shift,
		tags:     make([]int64, n),
		dirty:    make([]bool, n),
		stamp:    make([]uint64, n),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c, nil
}

// MustNew is New, panicking on configuration errors.
func MustNew(cfg Config, next Level) *Cache {
	c, err := New(cfg, next)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the configured level name.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the level configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes statistics without flushing contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// CopyFrom overwrites c's contents with src's — tags, dirty bits, LRU
// stamps and clock, and the statistics — reusing c's storage, so c
// continues exactly as src would. The configuration and next-level link
// are not copied. The two caches must have the same geometry.
func (c *Cache) CopyFrom(src *Cache) error {
	if len(c.tags) != len(src.tags) || c.cfg.Assoc != src.cfg.Assoc || c.blkShift != src.blkShift {
		return fmt.Errorf("cache %q: copy from a %q cache of another geometry", c.cfg.Name, src.cfg.Name)
	}
	copy(c.tags, src.tags)
	copy(c.dirty, src.dirty)
	copy(c.stamp, src.stamp)
	c.clock = src.clock
	c.stats = src.stats
	return nil
}

// Access looks up the block containing addr, filling on miss, and
// returns the total latency including any next-level latency.
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
			c.stamp[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			return c.cfg.Latency
		}
		if c.stamp[i] < c.stamp[victim] {
			victim = i
		}
	}

	// Miss: fill from the next level, evicting the victim.
	c.stats.Misses++
	if c.tags[victim] >= 0 && c.dirty[victim] {
		c.stats.Writebacks++
		// Write-back traffic is accounted but, as in sim-outorder's
		// default, does not add to the demand-miss latency (the
		// writeback buffer hides it).
	}
	lat := c.cfg.Latency + c.next.Access(addr, false)
	c.tags[victim] = block
	c.dirty[victim] = write
	c.stamp[victim] = c.clock
	return lat
}

// Memory is the hierarchy terminal with SimpleScalar's two-part
// latency: First cycles for the first chunk and Next cycles for each
// following ChunkBytes chunk of the requested block.
type Memory struct {
	First      int
	Next       int
	ChunkBytes int64
	BlockBytes int64 // block size transferred per request
	stats      Stats
}

// NewMemory builds the main-memory model. blockBytes is the size of
// the blocks requested by the innermost cache above memory.
func NewMemory(first, next int, chunkBytes, blockBytes int64) *Memory {
	if chunkBytes <= 0 {
		chunkBytes = 8
	}
	if blockBytes < chunkBytes {
		blockBytes = chunkBytes
	}
	return &Memory{First: first, Next: next, ChunkBytes: chunkBytes, BlockBytes: blockBytes}
}

// Name implements Level.
func (m *Memory) Name() string { return "mem" }

// Stats returns access statistics.
func (m *Memory) Stats() Stats { return m.stats }

// Access implements Level: every access is a miss to DRAM.
func (m *Memory) Access(addr int64, write bool) int {
	m.stats.Accesses++
	m.stats.Misses++
	chunks := int(m.BlockBytes / m.ChunkBytes)
	return m.First + (chunks-1)*m.Next
}

// Hierarchy bundles the full memory system of one core.
type Hierarchy struct {
	IL1 *Cache
	DL1 *Cache
	L2  *Cache
	Mem *Memory
}

// HierarchyConfig describes a complete memory system.
type HierarchyConfig struct {
	IL1      Config
	DL1      Config
	L2       Config
	MemFirst int
	MemNext  int
}

// NewHierarchy builds IL1 and DL1 sharing a unified L2 over memory.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	mem := NewMemory(cfg.MemFirst, cfg.MemNext, 8, cfg.L2.BlockBytes)
	l2, err := New(cfg.L2, mem)
	if err != nil {
		return nil, err
	}
	il1, err := New(cfg.IL1, l2)
	if err != nil {
		return nil, err
	}
	dl1, err := New(cfg.DL1, l2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{IL1: il1, DL1: dl1, L2: l2, Mem: mem}, nil
}

// CopyFrom overwrites every level of h with the matching level of src
// (see Cache.CopyFrom), reusing h's storage; h keeps its own level
// links. The hierarchies must have been built from the same
// configuration.
func (h *Hierarchy) CopyFrom(src *Hierarchy) error {
	for _, lv := range [...][2]*Cache{{h.IL1, src.IL1}, {h.DL1, src.DL1}, {h.L2, src.L2}} {
		if err := lv[0].CopyFrom(lv[1]); err != nil {
			return err
		}
	}
	h.Mem.stats = src.Mem.stats
	return nil
}
