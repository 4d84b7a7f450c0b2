package parallel

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mlpa/internal/emu"
	"mlpa/internal/isa"
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

// The StateCache left behind for perfbench walks every machine forward
// from instruction 0 and caches nothing. These tests keep the contract
// its callers rely on: exact states, independent machines, and the
// halt and cancellation errors.

// TestMachineAtMatchesFreshFastForward: a machine from MachineAt must
// match a fresh fast-forward instruction-for-instruction — identical
// architectural state at the target position, and identical state after
// every subsequent step.
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
			t.Fatalf("pos %d: MachineAt at %d, fresh at %d", pos, got.Insts, want.Insts)
		}
		if d := stateDiff(got, want); d != "" {
			t.Fatalf("pos %d: MachineAt state differs from fresh fast-forward: %s", pos, d)
		}
		// Step both to the end of the program, comparing committed
		// state after every instruction.
		for step := 0; !want.Halted; step++ {
			if _, err := want.Step(); err != nil {
				t.Fatalf("fresh step: %v", err)
			}
			if _, err := got.Step(); err != nil {
				t.Fatalf("MachineAt step: %v", err)
			}
			if got.PC != want.PC || got.Insts != want.Insts || got.Halted != want.Halted {
				t.Fatalf("pos %d: divergence at step %d: MachineAt (pc %d insts %d) vs fresh (pc %d insts %d)",
					pos, step, got.PC, got.Insts, want.PC, want.Insts)
			}
		}
		if d := stateDiff(got, want); d != "" {
			t.Fatalf("pos %d: final state differs after stepping to halt: %s", pos, d)
		}
	}
}

// TestMachineAtSingleFlight: N goroutines requesting the same position
// concurrently from one StateCache must each get a correct machine at
// that position, all in the same state (run under -race).
func TestMachineAtSingleFlight(t *testing.T) {
	p := testProgram()
	c := NewStateCache(p, 0, nil)
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
}

// TestMachineAtChainsFromNearestPredecessor: requests in any order must
// give the states of fresh walks. A later request never starts from an
// earlier one's machine, so descending, ascending and repeated
// positions all agree with a single forward pass.
func TestMachineAtChainsFromNearestPredecessor(t *testing.T) {
	p := testProgram()
	c := NewStateCache(p, 0, nil)
	ctx := context.Background()
	want := map[uint64]*emu.Machine{}
	ref := emu.New(p, 0)
	for _, pos := range []uint64{50, 120, 300} {
		if _, err := ref.RunTo(ctx, pos); err != nil {
			t.Fatal(err)
		}
		want[pos] = ref.Clone()
	}
	for _, pos := range []uint64{300, 50, 120, 300, 50} {
		m, err := c.MachineAt(ctx, pos)
		if err != nil {
			t.Fatal(err)
		}
		if d := stateDiff(m, want[pos]); d != "" {
			t.Errorf("pos %d: %s", pos, d)
		}
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
	// A failed request leaves nothing behind; a valid one still works.
	if _, err := c.MachineAt(context.Background(), total); err != nil {
		t.Errorf("valid position after failed request: %v", err)
	}
}

func TestMachineAtCancelledContext(t *testing.T) {
	p := testProgram()
	c := NewStateCache(p, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.MachineAt(ctx, 100); err == nil {
		t.Fatal("cancelled walk succeeded")
	}
	// A retry with a live context must succeed.
	m, err := c.MachineAt(context.Background(), 100)
	if err != nil || m.Insts != 100 {
		t.Fatalf("retry after cancellation: m=%v err=%v", m, err)
	}
}
