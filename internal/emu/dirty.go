package emu

// Dirty-page tracking. A portable checkpoint must capture the touched
// memory footprint, not the whole data segment: with tracking enabled
// the machine maintains a page-granular bitmap of every data page
// written, so a checkpoint producer scans O(dirty pages) instead of
// O(memory). Because data memory starts all-zero, the dirty set is a
// superset of the pages holding non-zero words at any later time —
// clearing memory and replaying the dirty pages reconstructs the exact
// image. Tracking costs one predictable nil-check branch per store in
// the fast path and is off by default.

import "math/bits"

const (
	// PageWords is the dirty-tracking granularity in 64-bit words:
	// 512 words = 4 KiB pages, so the default 8 MiB memory needs a
	// 2048-bit (256-byte) bitmap that stays cache-resident.
	PageWords = 1 << pageShift
	pageShift = 9
)

// TrackDirtyPages enables dirty-page tracking on m. Pages already
// holding non-zero words are seeded into the dirty set, so the
// invariant "dirty pages ⊇ pages with non-zero content" holds no
// matter when tracking is enabled. Enabling twice is a no-op.
func (m *Machine) TrackDirtyPages() {
	if m.dirty != nil {
		return
	}
	pages := (len(m.mem) + PageWords - 1) / PageWords
	m.dirty = make([]uint64, (pages+63)/64)
	for i, v := range m.mem {
		if v != 0 {
			p := uint(i) >> pageShift
			m.dirty[p>>6] |= 1 << (p & 63)
		}
	}
}

// TracksDirtyPages reports whether dirty-page tracking is enabled.
func (m *Machine) TracksDirtyPages() bool { return m.dirty != nil }

// DirtyPages returns the sorted indices of every page written since
// tracking was enabled (plus the seeded non-zero pages). It returns
// nil when tracking is disabled.
func (m *Machine) DirtyPages() []int64 {
	if m.dirty == nil {
		return nil
	}
	var out []int64
	for wi, w := range m.dirty {
		for w != 0 {
			out = append(out, int64(wi<<6|bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// markDirty records a write to word index w (not a byte address) on
// the slow paths (Step, StoreWord); the batched loops mark inline in
// execSpan.
func (m *Machine) markDirty(w int64) {
	if m.dirty != nil {
		p := uint64(w) >> pageShift
		m.dirty[p>>6] |= 1 << (p & 63)
	}
}
