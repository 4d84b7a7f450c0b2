package emu

import (
	"reflect"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/prog"
)

// nonZeroPages returns the page indices holding non-zero words.
func nonZeroPages(m *Machine) map[int64]bool {
	out := make(map[int64]bool)
	for w := int64(0); w < m.MemWords(); w++ {
		if m.LoadWord(w<<3) != 0 {
			out[w>>pageShift] = true
		}
	}
	return out
}

// TestDirtyPagesSupersetOfNonZero: after any run, the dirty set must
// cover every page holding non-zero content — the invariant that makes
// "clear memory, replay dirty pages" an exact restore.
func TestDirtyPagesSupersetOfNonZero(t *testing.T) {
	for _, p := range prog.Examples() {
		t.Run(p.Name, func(t *testing.T) {
			m := New(p, 0)
			if _, err := m.Run(200_000); err != nil && !m.Halted {
				t.Fatal(err)
			}
			dirty := make(map[int64]bool)
			for _, pg := range m.DirtyPages() {
				dirty[pg] = true
			}
			for pg := range nonZeroPages(m) {
				if !dirty[pg] {
					t.Fatalf("page %d holds non-zero content but is not dirty", pg)
				}
			}
		})
	}
}

// TestDirtyPagesMatchStepLoop: the batched fast path (traces included)
// and the reference interpreter must mark the identical dirty set.
func TestDirtyPagesMatchStepLoop(t *testing.T) {
	for _, p := range prog.Examples() {
		t.Run(p.Name, func(t *testing.T) {
			fast := New(p, 0)
			ref := New(p, 0)
			if _, err := fast.Run(100_000); err != nil && !fast.Halted {
				t.Fatal(err)
			}
			for !ref.Halted && ref.Insts < 100_000 {
				if _, err := ref.refStep(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := fast.DirtyPages(), ref.DirtyPages(); !reflect.DeepEqual(got, want) {
				t.Fatalf("fast path dirty pages %v, Step loop %v", got, want)
			}
		})
	}
}

// TestDirtyPagesCloneIndependent: a clone inherits the dirty set but
// subsequent writes diverge independently.
func TestDirtyPagesCloneIndependent(t *testing.T) {
	p := prog.Examples()[0]
	m := New(p, 0)
	m.StoreWord(0, 1)
	c := m.Clone()
	c.StoreWord(int64(PageWords*8*5), 2) // page 5, bytes
	if got := m.DirtyPages(); !reflect.DeepEqual(got, []int64{0}) {
		t.Fatalf("original dirty set mutated through clone: %v", got)
	}
	if got := c.DirtyPages(); !reflect.DeepEqual(got, []int64{0, 5}) {
		t.Fatalf("clone dirty set = %v, want [0 5]", got)
	}
}

// TestDirtyPagesReset: loads leave every page unwritten, a store
// dirties its page, and Reset clears the set.
func TestDirtyPagesReset(t *testing.T) {
	p := prog.Examples()[0]
	m := New(p, 0)
	if m.LoadWord(64) != 0 || len(m.DirtyPages()) != 0 {
		t.Fatal("a load dirtied a page")
	}
	m.StoreWord(64, 7)
	if got := m.DirtyPages(); !reflect.DeepEqual(got, []int64{0}) {
		t.Fatalf("dirty pages after one store = %v, want [0]", got)
	}
	m.Reset()
	if got := m.DirtyPages(); len(got) != 0 {
		t.Fatalf("dirty pages after Reset: %v", got)
	}
	if m.LoadWord(64) != 0 {
		t.Fatal("Reset left data behind")
	}
}

// TestNewAllocatesPageTableOnly: a default-size machine (8 MiB of
// data memory) for a suite program costs its page table and counters,
// not its memory image.
func TestNewAllocatesPageTableOnly(t *testing.T) {
	p := bench.Suite()[0].MustProgram(bench.SizeTiny)
	New(p, 0) // predecode once, outside the measurement
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			New(p, 0)
		}
	})
	if got := r.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("New allocates %d bytes per machine, want < 64 KiB", got)
	}
}
