package parallel

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mlpa/internal/emu"
	"mlpa/internal/isa"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
)

// testProgram returns a triple loop nest long enough for interesting
// fast-forward positions. Its inner body also sets an FP register and
// stores to a fresh 4 KiB page per iteration, so state comparisons
// cover both register files and many dirty pages.
func testProgram() *prog.Program {
	b := prog.NewBuilder("statecache_nest")
	b.CountedLoop("l0", 1, 6, func() {
		b.Addi(5, 5, 1)
		b.CountedLoop("l1", 2, 5, func() {
			b.Addi(6, 6, 1)
			b.CountedLoop("l2", 3, 7, func() {
				b.Addi(7, 7, 1)
				b.CvtIF(isa.F(1), 7)
				b.Shli(8, 7, 12)
				b.St(7, 8, 0)
			})
		})
	})
	b.Halt()
	return b.MustBuild()
}

// stateDiff compares the architectural state of two machines —
// registers, PC, instruction count, halt flag and every memory word —
// and describes the first difference, or returns "" when they match.
func stateDiff(a, b *emu.Machine) string {
	switch {
	case a.PC != b.PC:
		return fmt.Sprintf("pc %d vs %d", a.PC, b.PC)
	case a.Insts != b.Insts:
		return fmt.Sprintf("insts %d vs %d", a.Insts, b.Insts)
	case a.Halted != b.Halted:
		return fmt.Sprintf("halted %v vs %v", a.Halted, b.Halted)
	case a.IntRegs != b.IntRegs:
		return fmt.Sprintf("int regs %v vs %v", a.IntRegs, b.IntRegs)
	case a.FPRegs != b.FPRegs:
		return fmt.Sprintf("fp regs %v vs %v", a.FPRegs, b.FPRegs)
	case a.MemWords() != b.MemWords():
		return fmt.Sprintf("memory size %d vs %d words", a.MemWords(), b.MemWords())
	}
	for w := int64(0); w < a.MemWords(); w++ {
		if x, y := a.LoadWord(w<<3), b.LoadWord(w<<3); x != y {
			return fmt.Sprintf("memory word %d: %#x vs %#x", w, x, y)
		}
	}
	return ""
}

// TestMachineAtMatchesFreshFastForward: a machine restored from the
// cache must match a fresh fast-forward instruction-for-instruction —
// identical architectural state at the target position, and identical
// state after every subsequent step. The pipeline's restore path
// (ckpt.State.NewMachine of StateAt's state) must match too.
func TestMachineAtMatchesFreshFastForward(t *testing.T) {
	p := testProgram()
	c := NewStateCache(p, 0, nil)
	ctx := context.Background()
	for _, pos := range []uint64{0, 1, 17, 100, 250} {
		got, err := c.MachineAt(ctx, pos)
		if err != nil {
			t.Fatalf("MachineAt(%d): %v", pos, err)
		}
		want := emu.New(p, 0)
		if pos > 0 {
			if _, err := want.Run(pos); err != nil {
				t.Fatalf("fresh run to %d: %v", pos, err)
			}
		}
		if got.Insts != pos || want.Insts != pos {
			t.Fatalf("pos %d: cached at %d, fresh at %d", pos, got.Insts, want.Insts)
		}
		if d := stateDiff(got, want); d != "" {
			t.Fatalf("pos %d: restored state differs from fresh fast-forward: %s", pos, d)
		}
		st, err := c.StateAt(ctx, pos)
		if err != nil {
			t.Fatalf("StateAt(%d): %v", pos, err)
		}
		viaState, err := st.NewMachine(p)
		if err != nil {
			t.Fatalf("NewMachine at %d: %v", pos, err)
		}
		if d := stateDiff(viaState, want); d != "" {
			t.Fatalf("pos %d: NewMachine of the cached state differs from fresh fast-forward: %s", pos, d)
		}
		// Step both to the end of the program, comparing committed
		// state after every instruction.
		for step := 0; !want.Halted; step++ {
			if _, err := want.Step(); err != nil {
				t.Fatalf("fresh step: %v", err)
			}
			if _, err := got.Step(); err != nil {
				t.Fatalf("restored step: %v", err)
			}
			if got.PC != want.PC || got.Insts != want.Insts || got.Halted != want.Halted {
				t.Fatalf("pos %d: divergence at step %d: restored (pc %d insts %d) vs fresh (pc %d insts %d)",
					pos, step, got.PC, got.Insts, want.PC, want.Insts)
			}
		}
		if d := stateDiff(got, want); d != "" {
			t.Fatalf("pos %d: final state differs after stepping to halt: %s", pos, d)
		}
	}
}

// TestMachineAtSingleFlight: N goroutines requesting the same position
// concurrently must trigger exactly one underlying fast-forward (one
// cache miss); everyone still gets a correct, independent machine.
func TestMachineAtSingleFlight(t *testing.T) {
	p := testProgram()
	reg := obs.NewRegistry()
	c := NewStateCache(p, 0, reg)
	const pos, goroutines = 200, 16

	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		first *emu.Machine
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			m, err := c.MachineAt(context.Background(), pos)
			if err != nil {
				t.Error(err)
				return
			}
			if m.Insts != pos {
				t.Errorf("machine at %d, want %d", m.Insts, pos)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if first == nil {
				first = m
			} else if d := stateDiff(first, m); d != "" {
				t.Errorf("goroutines observed different states for the same position: %s", d)
			}
		}()
	}
	close(start)
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["parallel.state_cache.misses"]; got != 1 {
		t.Errorf("misses = %d, want exactly 1 (single-flight)", got)
	}
	hits := snap.Counters["parallel.state_cache.hits"]
	if hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", hits, goroutines-1)
	}
	// The build fast-forwarded the prefix exactly once.
	if got := snap.Counters["parallel.state_cache.ff_insts"]; got != pos {
		t.Errorf("ff_insts = %d, want %d", got, pos)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
	if c.Bytes() <= 0 {
		t.Error("cache reports zero encoded bytes")
	}
}

// TestMachineAtChainsFromNearestPredecessor: ascending requests reuse
// the deepest completed entry instead of rebuilding from scratch, so
// total fast-forward work is one pass over the prefix.
func TestMachineAtChainsFromNearestPredecessor(t *testing.T) {
	p := testProgram()
	reg := obs.NewRegistry()
	c := NewStateCache(p, 0, reg)
	ctx := context.Background()
	positions := []uint64{50, 120, 300}
	for _, pos := range positions {
		if _, err := c.MachineAt(ctx, pos); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	want := int64(positions[len(positions)-1]) // 50 + 70 + 180
	if got := snap.Counters["parallel.state_cache.ff_insts"]; got != want {
		t.Errorf("chained ff_insts = %d, want %d (one pass)", got, want)
	}
}

// TestMachineAtIndependentMutation: machines handed out for the same
// position must not share state.
func TestMachineAtIndependentMutation(t *testing.T) {
	p := testProgram()
	c := NewStateCache(p, 0, nil)
	ctx := context.Background()
	a, err := c.MachineAt(ctx, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.MachineAt(ctx, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(10); err != nil {
		t.Fatal(err)
	}
	if b.Insts != 40 {
		t.Errorf("mutating one machine moved the other to %d", b.Insts)
	}
}

func TestMachineAtPastHalt(t *testing.T) {
	p := testProgram()
	m := emu.New(p, 0)
	total, err := m.RunToCompletion(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	c := NewStateCache(p, 0, nil)
	_, err = c.MachineAt(context.Background(), total+100)
	if err == nil || !strings.Contains(err.Error(), "halted") {
		t.Errorf("err = %v, want halt diagnostic", err)
	}
	// The failed position must not be poisoned; a valid one still works.
	if _, err := c.MachineAt(context.Background(), total); err != nil {
		t.Errorf("valid position after failed build: %v", err)
	}
}

func TestMachineAtCancelledContext(t *testing.T) {
	p := testProgram()
	c := NewStateCache(p, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.MachineAt(ctx, 100); err == nil {
		t.Fatal("cancelled build succeeded")
	}
	// A retry with a live context must succeed (no poisoned entry).
	m, err := c.MachineAt(context.Background(), 100)
	if err != nil || m.Insts != 100 {
		t.Fatalf("retry after cancellation: m=%v err=%v", m, err)
	}
}
