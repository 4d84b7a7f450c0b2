package emu

// Differential tests of the predecoded fast path: Run (the block-
// batched runFast loop) must be bit-identical to driving the machine
// with the frozen reference interpreter, refStep (ref_test.go) — same
// registers, memory, PC, counters, halt state, errors, and identical
// hook observations. The fuzz target in fuzz_test.go chews on the same
// comparison with adversarial programs.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// stepMachine drives m with the reference per-instruction loop,
// replicating the legacy Run semantics exactly.
func stepMachine(m *Machine, maxInsts uint64) (uint64, error) {
	return m.runStep(maxInsts)
}

// compareMachines fails the test unless every architectural observable
// of the two machines is identical. FP registers are compared by bit
// pattern so NaNs with different payloads are distinguished.
func compareMachines(t *testing.T, fast, ref *Machine, label string) {
	t.Helper()
	if fast.PC != ref.PC {
		t.Errorf("%s: PC %d != reference %d", label, fast.PC, ref.PC)
	}
	if fast.Halted != ref.Halted {
		t.Errorf("%s: Halted %v != reference %v", label, fast.Halted, ref.Halted)
	}
	if fast.Insts != ref.Insts {
		t.Errorf("%s: Insts %d != reference %d", label, fast.Insts, ref.Insts)
	}
	if fast.IntRegs != ref.IntRegs {
		t.Errorf("%s: IntRegs diverge:\n  fast %v\n  ref  %v", label, fast.IntRegs, ref.IntRegs)
	}
	for i := range fast.FPRegs {
		if math.Float64bits(fast.FPRegs[i]) != math.Float64bits(ref.FPRegs[i]) {
			t.Errorf("%s: FPRegs[%d] %x != reference %x", label, i,
				math.Float64bits(fast.FPRegs[i]), math.Float64bits(ref.FPRegs[i]))
		}
	}
	for i := range fast.BlockCounts {
		if fast.BlockCounts[i] != ref.BlockCounts[i] {
			t.Errorf("%s: BlockCounts[%d] %d != reference %d", label, i,
				fast.BlockCounts[i], ref.BlockCounts[i])
		}
	}
	compareMemory(t, fast, ref, label)
}

// compareMemory fails the test unless both machines wrote the same
// pages with the same contents — every other page is the shared zero
// page on both sides — and the zero page itself is still all zero.
func compareMemory(t *testing.T, fast, ref *Machine, label string) {
	t.Helper()
	if zeroPage != ([PageWords]uint64{}) {
		t.Fatalf("%s: the shared zero page was written", label)
	}
	pages := fast.DirtyPages()
	if want := ref.DirtyPages(); !slices.Equal(pages, want) {
		t.Fatalf("%s: dirty pages %v != reference %v", label, pages, want)
	}
	for _, pi := range pages {
		for k, v := range fast.pages[pi] {
			if w := ref.pages[pi][k]; v != w {
				t.Fatalf("%s: mem[%d] %#x != reference %#x", label, pi*PageWords+int64(k), v, w)
			}
		}
	}
}

func compareOutcome(t *testing.T, label string, nFast, nRef uint64, errFast, errRef error) {
	t.Helper()
	if nFast != nRef {
		t.Errorf("%s: executed %d != reference %d", label, nFast, nRef)
	}
	if (errFast == nil) != (errRef == nil) {
		t.Errorf("%s: error %v != reference %v", label, errFast, errRef)
	} else if errFast != nil && errFast.Error() != errRef.Error() {
		t.Errorf("%s: error %q != reference %q", label, errFast, errRef)
	}
}

// runBothChunked runs the same program on a fast-path machine and a
// Step-loop machine in identical chunk schedules, comparing all state
// after every chunk. A chunk of 0 runs to completion.
func runBothChunked(t *testing.T, p *prog.Program, memWords int64, chunks []uint64) {
	t.Helper()
	fast := New(p, memWords)
	ref := New(p, memWords)
	for ci, chunk := range chunks {
		nFast, errFast := fast.Run(chunk)
		nRef, errRef := stepMachine(ref, chunk)
		label := fmt.Sprintf("%s chunk %d (budget %d)", p.Name, ci, chunk)
		compareOutcome(t, label, nFast, nRef, errFast, errRef)
		compareMachines(t, fast, ref, label)
		if t.Failed() || errFast != nil || fast.Halted {
			break
		}
	}
}

// TestRunMatchesStepLoop runs every builder example program to
// completion under several chunk schedules, including ragged budgets
// that expire mid-batch.
func TestRunMatchesStepLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range prog.Examples() {
		schedules := [][]uint64{
			{0},                    // one unbounded run
			{1, 2, 3, 5, 8, 13, 0}, // tiny ragged chunks, then the rest
		}
		var random []uint64
		for i := 0; i < 64; i++ {
			random = append(random, uint64(rng.Intn(97)+1))
		}
		schedules = append(schedules, append(random, 0))
		for si, chunks := range schedules {
			chunks := chunks
			t.Run(fmt.Sprintf("%s/schedule%d", p.Name, si), func(t *testing.T) {
				runBothChunked(t, p, 1<<12, chunks)
			})
		}
	}
}

// TestRunMatchesStepLoopProfiler attaches a LoopProfiler to a
// fast-path machine and to a Step-driven machine and requires the
// discovered loop structures to be identical — the hook must observe
// the same (from, to, Insts) sequence either way.
func TestRunMatchesStepLoopProfiler(t *testing.T) {
	for _, p := range prog.Examples() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			fast := New(p, 1<<12)
			ref := New(p, 1<<12)
			lpFast := NewLoopProfiler(fast)
			lpRef := NewLoopProfiler(ref)
			fast.Branch = lpFast.OnBranch
			ref.Branch = lpRef.OnBranch
			nFast, errFast := fast.Run(0)
			nRef, errRef := stepMachine(ref, 0)
			compareOutcome(t, p.Name, nFast, nRef, errFast, errRef)
			compareMachines(t, fast, ref, p.Name)
			lpFast.Finish()
			lpRef.Finish()
			sFast, sRef := lpFast.Structures(), lpRef.Structures()
			if !reflect.DeepEqual(sFast, sRef) {
				t.Errorf("loop structures diverge:\n  fast %+v\n  ref  %+v", sFast, sRef)
			}
			if len(sFast) == 0 {
				t.Errorf("profiler discovered no structures in %s", p.Name)
			}
		})
	}
}

// TestRunMatchesStepLoopSnapshotHook exercises a vli-style hook that
// reads m.PC and m.Insts and snapshots/resets BlockCounts mid-run —
// everything the BranchHook contract promises; the observed event
// streams must be identical between the two engines.
func TestRunMatchesStepLoopSnapshotHook(t *testing.T) {
	type event struct {
		from, to, pc int64
		insts        uint64
		snap         []uint64
	}
	collect := func(m *Machine, run func(uint64) (uint64, error)) ([]event, uint64, error) {
		var events []event
		n := 0
		m.Branch = func(from, to int64) {
			n++
			if to <= from && n%3 == 0 {
				events = append(events, event{from, to, m.PC, m.Insts, m.SnapshotBlockCounts()})
				m.ResetBlockCounts()
			}
		}
		done, err := run(0)
		return events, done, err
	}
	for _, p := range prog.Examples() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			fast := New(p, 1<<12)
			ref := New(p, 1<<12)
			evFast, nFast, errFast := collect(fast, fast.Run)
			evRef, nRef, errRef := collect(ref, ref.runStep)
			compareOutcome(t, p.Name, nFast, nRef, errFast, errRef)
			compareMachines(t, fast, ref, p.Name)
			if !reflect.DeepEqual(evFast, evRef) {
				t.Errorf("hook event streams diverge: %d fast events vs %d reference", len(evFast), len(evRef))
			}
		})
	}
}

// TestRunHookToggleAtTraceBoundaries attaches and detaches the Branch
// hook between budget chunks that stop at arbitrary instruction counts
// — PCs that land in the interior of regions the superblock engine
// covers with traces. A hooked chunk must skip traces and leave counts,
// PC and registers identical to the Step reference, and re-detaching
// must drop straight back into trace dispatch with no residue; the
// observed event stream (from, to, PC, Insts) must match the reference
// under the identical toggle schedule.
func TestRunHookToggleAtTraceBoundaries(t *testing.T) {
	type event struct {
		from, to, pc int64
		insts        uint64
	}
	rng := rand.New(rand.NewSource(11))
	for _, p := range prog.Examples() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if countTraces(predecode(p).traces) == 0 {
				t.Fatalf("%s built no traces; toggle test would not cross trace interiors", p.Name)
			}
			fast := New(p, 1<<12)
			ref := New(p, 1<<12)
			var evFast, evRef []event
			toggle := func(on bool) {
				if !on {
					fast.Branch, ref.Branch = nil, nil
					return
				}
				fast.Branch = func(from, to int64) { evFast = append(evFast, event{from, to, fast.PC, fast.Insts}) }
				ref.Branch = func(from, to int64) { evRef = append(evRef, event{from, to, ref.PC, ref.Insts}) }
			}
			for ci := 0; ci < 200 && !fast.Halted; ci++ {
				toggle(rng.Intn(2) == 0)
				budget := uint64(rng.Intn(211) + 1)
				nFast, errFast := fast.Run(budget)
				nRef, errRef := stepMachine(ref, budget)
				label := fmt.Sprintf("%s chunk %d (budget %d, hooked %v)", p.Name, ci, budget, fast.Branch != nil)
				compareOutcome(t, label, nFast, nRef, errFast, errRef)
				compareMachines(t, fast, ref, label)
				if t.Failed() || errFast != nil {
					return
				}
			}
			if len(evFast) != len(evRef) {
				t.Fatalf("hook fired %d times, reference %d", len(evFast), len(evRef))
			}
			for i := range evFast {
				if evFast[i] != evRef[i] {
					t.Fatalf("hook event %d: %+v != reference %+v", i, evFast[i], evRef[i])
				}
			}
		})
	}
}

// countTraces reports how many non-nil traces a predecoded trace table
// holds.
func countTraces(traces []*strace) int {
	n := 0
	for _, tr := range traces {
		if tr != nil {
			n++
		}
	}
	return n
}

// TestRunMatchesStepRandomPrograms feeds byte-derived adversarial
// programs (the fuzz generator) through both engines: invalid opcodes,
// mid-block halts, wild register names, out-of-range branch and jr
// targets.
func TestRunMatchesStepRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 8*(rng.Intn(48)+2))
		rng.Read(data)
		p := fuzzProgram(data)
		if p == nil {
			continue
		}
		chunks := []uint64{uint64(rng.Intn(300) + 1), uint64(rng.Intn(300) + 1), 4096}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			runBothChunked(t, p, 1<<8, chunks)
		})
	}
}

// edgeCasePrograms are the interesting control-flow and register
// corners, pinned directly by TestRunEdgeCases and
// TestStepMatchesReferenceEdgeCases.
func edgeCasePrograms() []*prog.Program {
	mk := func(name string, code ...isa.Inst) *prog.Program {
		return &prog.Program{Name: name, Code: code}
	}
	return []*prog.Program{
		// Halt in the middle of a straight-line block.
		mk("midblock-halt",
			isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: isa.RZero, Imm: 3},
			isa.Inst{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1},
			isa.Inst{Op: isa.OpHalt},
			isa.Inst{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 10},
			isa.Inst{Op: isa.OpHalt},
		),
		// jr into a block's tail, past the first halt.
		mk("jr-midblock",
			isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: isa.RZero, Imm: 4},
			isa.Inst{Op: isa.OpJr, Rs1: 1},
			isa.Inst{Op: isa.OpHalt},
			isa.Inst{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 7},
			isa.Inst{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 9},
			isa.Inst{Op: isa.OpHalt},
		),
		// jr to an out-of-range PC.
		mk("jr-wild",
			isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: isa.RZero, Imm: 1 << 20},
			isa.Inst{Op: isa.OpJr, Rs1: 1},
			isa.Inst{Op: isa.OpHalt},
		),
		// jr to a negative PC.
		mk("jr-negative",
			isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: isa.RZero, Imm: -5},
			isa.Inst{Op: isa.OpJr, Rs1: 1},
			isa.Inst{Op: isa.OpHalt},
		),
		// An invalid opcode mid-stream.
		mk("invalid-op",
			isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: isa.RZero, Imm: 2},
			isa.Inst{Op: isa.Op(200)},
			isa.Inst{Op: isa.OpHalt},
		),
		// Writes to R0 and cross-namespace register names are discarded
		// on both sides of the int/FP split.
		mk("weird-regs",
			isa.Inst{Op: isa.OpAddi, Rd: isa.RZero, Rs1: isa.RZero, Imm: 9},
			isa.Inst{Op: isa.OpAddi, Rd: isa.F(3), Rs1: isa.RZero, Imm: 8},
			isa.Inst{Op: isa.OpFadd, Rd: 7, Rs1: isa.F(1), Rs2: isa.F(2)},
			isa.Inst{Op: isa.OpAdd, Rd: 5, Rs1: isa.F(3), Rs2: isa.RZero},
			isa.Inst{Op: isa.OpJal, Rd: isa.F(9), Targ: 5},
			isa.Inst{Op: isa.OpHalt},
		),
		// Program ending without a halt: falls off the end.
		mk("falls-off-end",
			isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1},
			isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1},
		),
		// Conditional branch whose target is out of range: taking it
		// must error exactly like Step on the following Run call.
		mk("branch-wild-target",
			isa.Inst{Op: isa.OpBeq, Rs1: isa.RZero, Rs2: isa.RZero, Targ: 99},
			isa.Inst{Op: isa.OpHalt},
		),
		// Stores to every page of the default 8 MiB memory, four pages
		// an iteration, reading one back: every page leaves the shared
		// zero page, in slabs, on both engines.
		mk("all-pages",
			isa.Inst{Op: isa.OpLui, Rd: 2, Imm: DefaultMemWords * 8 >> 16},
			isa.Inst{Op: isa.OpSt, Rs1: 1, Rs2: 1, Imm: 0},
			isa.Inst{Op: isa.OpSt, Rs1: 1, Rs2: 1, Imm: PageWords * 8},
			isa.Inst{Op: isa.OpSt, Rs1: 1, Rs2: 1, Imm: 2 * PageWords * 8},
			isa.Inst{Op: isa.OpSt, Rs1: 1, Rs2: 1, Imm: 3 * PageWords * 8},
			isa.Inst{Op: isa.OpLd, Rd: 3, Rs1: 1, Imm: PageWords * 8},
			isa.Inst{Op: isa.OpAdd, Rd: 4, Rs1: 4, Rs2: 3},
			isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 4 * PageWords * 8},
			isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 2, Targ: 1},
			isa.Inst{Op: isa.OpHalt},
		),
	}
}

// TestRunEdgeCases runs the edge-case programs under several chunk
// schedules.
func TestRunEdgeCases(t *testing.T) {
	for _, p := range edgeCasePrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, chunks := range [][]uint64{
				{4096, 4096},
				{1, 1, 1, 1, 1, 1, 1, 1, 4096},
				{2, 4096},
			} {
				runBothChunked(t, p, 0, chunks)
			}
		})
	}
}

// TestRunAfterPartialStep drives a Step-only prefix on both machines
// so the fast path has to resume from a PC in the middle of a basic
// block, then compares the completion runs.
func TestRunAfterPartialStep(t *testing.T) {
	for _, p := range prog.Examples() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ref := New(p, 1<<12)
			fast := New(p, 1<<12)
			if _, err := stepMachine(ref, 137); err != nil {
				t.Fatalf("reference prefix: %v", err)
			}
			if _, err := stepMachine(fast, 137); err != nil {
				t.Fatalf("fast prefix: %v", err)
			}
			if ref.Halted {
				t.Skip("program shorter than prefix")
			}
			nFast, errFast := fast.Run(0)
			nRef, errRef := stepMachine(ref, 0)
			compareOutcome(t, p.Name, nFast, nRef, errFast, errRef)
			compareMachines(t, fast, ref, p.Name)
		})
	}
}

// TestRunAlreadyHalted checks Run on a halted machine is a no-op for
// both engines.
func TestRunAlreadyHalted(t *testing.T) {
	p := prog.Examples()[0]
	fast := New(p, 1<<12)
	ref := New(p, 1<<12)
	if _, err := fast.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := stepMachine(ref, 0); err != nil {
		t.Fatal(err)
	}
	nFast, errFast := fast.Run(100)
	nRef, errRef := stepMachine(ref, 100)
	compareOutcome(t, "halted", nFast, nRef, errFast, errRef)
	if nFast != 0 {
		t.Errorf("Run on halted machine executed %d instructions", nFast)
	}
	compareMachines(t, fast, ref, "halted")
}
