package emu

// Paged data memory. A machine's data memory is a page table of
// PageWords-word pages whose unwritten entries all point at one shared,
// read-only zero page: loads index the table without a branch, and the
// first store to a page maps a private zeroed page in its place
// (writable). The allocated pages are therefore exactly the machine's
// dirty set — every page written since New or the last Reset — which
// is a superset of the pages holding non-zero words, so "clear memory,
// replay the dirty pages" reconstructs the exact image. New costs one
// page-table entry per page; Reset, Clone and a checkpoint capture
// cost O(written pages), not O(memory).

import "slices"

const (
	// PageWords is the page size in 64-bit words: 512 words = 4 KiB,
	// so the default 8 MiB memory is a 2048-entry page table.
	PageWords = 1 << pageShift
	pageShift = 9
)

// zeroPage backs every unwritten page of every machine. It is never
// written: stores go through writable, which swaps in a private page.
var zeroPage [PageWords]uint64

// writable returns the page holding word index w (not a byte address),
// allocating it on the first write. Every store path — execSpan, Step
// and StoreWord — goes through it.
func (m *Machine) writable(w int64) *[PageWords]uint64 {
	if pg := m.pages[w>>pageShift]; pg != &zeroPage {
		return pg
	}
	return m.allocPage(w >> pageShift)
}

// allocPage maps a zeroed page at page index pi, reusing one that
// Reset freed when there is one and allocating a new slab otherwise.
// A slab holds as many pages as the machine has written so far (at
// least one), so a machine that writes one page pays for one, and one
// that writes all 2048 makes 12 allocations that sum to exactly its
// memory. allocPage stays out of line so writable inlines into every
// store.
//
//go:noinline
func (m *Machine) allocPage(pi int64) *[PageWords]uint64 {
	if len(m.free) == 0 {
		slab := make([][PageWords]uint64, max(len(m.written), 1))
		for i := range slab {
			m.free = append(m.free, &slab[i])
		}
	}
	pg := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.pages[pi] = pg
	m.written = append(m.written, pi)
	return pg
}

// TrackDirtyPages does nothing: a machine always knows its written
// pages (see DirtyPages). It remains because perfbench's traced replay
// still calls it.
func (m *Machine) TrackDirtyPages() {}

// DirtyPages returns the sorted indices of every page written since
// New or the last Reset.
func (m *Machine) DirtyPages() []int64 {
	out := slices.Clone(m.written)
	slices.Sort(out)
	return out
}
