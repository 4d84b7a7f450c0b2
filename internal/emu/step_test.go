package emu

// Lockstep tests of Step against refStep, the frozen reference
// interpreter in ref_test.go: two machines run the same program one
// instruction at a time, and after every instruction the StepInfo, the
// error text, every hook call and the full machine state must agree.
// FuzzRunVsStep runs the same check as its second leg.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// stepEvent is one hook call as a Step-driven hook sees it: the
// transfer and the full state current at the call.
type stepEvent struct {
	from, to, pc int64
	insts        uint64
	ints         [isa.NumIntRegs]int64
	fps          [isa.NumFPRegs]uint64 // bit patterns
	block        uint64                // BlockCounts of the transferring block
}

// recordSteps returns a hook appending every call on m to log.
func recordSteps(m *Machine, log *[]stepEvent) BranchHook {
	return func(from, to int64) {
		ev := stepEvent{from: from, to: to, pc: m.PC, insts: m.Insts, ints: m.IntRegs,
			block: m.BlockCounts[m.blockOf[from]]}
		for i, f := range m.FPRegs {
			ev.fps[i] = math.Float64bits(f)
		}
		*log = append(*log, ev)
	}
}

// lockstep drives a Step machine and a refStep machine for p, hooks
// attached when hooked, for maxSteps instructions or until two steps
// after both halted (so stepping a halted machine is compared too). It
// fails at the first instruction whose StepInfo, error text, hook calls
// or machine state (registers bit for bit, written pages and their
// contents, PC, Insts, BlockCounts, Halted) differ.
func lockstep(t *testing.T, p *prog.Program, memWords int64, maxSteps int, hooked bool) {
	t.Helper()
	got, want := New(p, memWords), New(p, memWords)
	var evGot, evWant []stepEvent
	if hooked {
		got.Branch = recordSteps(got, &evGot)
		want.Branch = recordSteps(want, &evWant)
	}
	afterHalt, seen := 0, 0
	for i := 0; i < maxSteps && afterHalt < 2; i++ {
		if want.Halted {
			afterHalt++
		}
		info, err := got.Step()
		ref, refErr := want.refStep()
		where := func() string { return fmt.Sprintf("%s step %d at pc %d", p.Name, i, ref.PC) }
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("%s: error %v, reference %v", where(), err, refErr)
		}
		if wantInfo := (StepInfo{PC: ref.PC, NextPC: ref.NextPC, MemAddr: ref.MemAddr, Taken: ref.Taken}); info != wantInfo {
			t.Fatalf("%s: StepInfo %+v, reference %+v", where(), info, wantInfo)
		}
		if !slices.Equal(evGot[seen:], evWant[seen:]) {
			t.Fatalf("%s: hook calls diverge:\n  got  %+v\n  want %+v", where(), evGot[seen:], evWant[seen:])
		}
		seen = len(evGot)
		sameStepState(t, got, want, where)
		// Only a store changes memory, one word of it.
		if a := ref.MemAddr; a >= 0 && got.LoadWord(a) != want.LoadWord(a) {
			t.Fatalf("%s: word at %#x is %#x, reference %#x", where(), a, got.LoadWord(a), want.LoadWord(a))
		}
	}
	compareMemory(t, got, want, p.Name)
}

// sameStepState fails unless the two machines' registers (bit for bit),
// written pages, PC, Insts, BlockCounts and Halted agree. Pages are
// compared by their index lists; lockstep compares the word each store
// wrote, and all page contents at the end.
func sameStepState(t *testing.T, got, want *Machine, where func() string) {
	t.Helper()
	if got.PC != want.PC || got.Insts != want.Insts || got.Halted != want.Halted {
		t.Fatalf("%s: PC/Insts/Halted %d/%d/%v, reference %d/%d/%v", where(),
			got.PC, got.Insts, got.Halted, want.PC, want.Insts, want.Halted)
	}
	if got.IntRegs != want.IntRegs {
		t.Fatalf("%s: IntRegs %v, reference %v", where(), got.IntRegs, want.IntRegs)
	}
	for i := range got.FPRegs {
		if g, w := math.Float64bits(got.FPRegs[i]), math.Float64bits(want.FPRegs[i]); g != w {
			t.Fatalf("%s: FPRegs[%d] %#x, reference %#x", where(), i, g, w)
		}
	}
	if !slices.Equal(got.BlockCounts, want.BlockCounts) {
		t.Fatalf("%s: BlockCounts %v, reference %v", where(), got.BlockCounts, want.BlockCounts)
	}
	if !slices.Equal(got.written, want.written) {
		t.Fatalf("%s: written pages %v, reference %v", where(), got.written, want.written)
	}
}

// TestStepMatchesReferenceExamples runs every builder example to halt,
// hooked and unhooked.
func TestStepMatchesReferenceExamples(t *testing.T) {
	for _, p := range prog.Examples() {
		for _, hooked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hooked=%v", p.Name, hooked), func(t *testing.T) {
				lockstep(t, p, 1<<12, 1<<20, hooked)
			})
		}
	}
}

// TestStepMatchesReferenceSuite runs the first instructions of every
// tiny suite program, whose loads, stores and FP kernels the builder
// examples lack.
func TestStepMatchesReferenceSuite(t *testing.T) {
	for _, spec := range bench.Suite() {
		p := spec.MustProgram(bench.SizeTiny)
		t.Run(spec.Name, func(t *testing.T) {
			lockstep(t, p, 0, 20_000, true)
		})
	}
}

// TestStepMatchesReferenceRandomPrograms feeds the byte-derived
// programs of TestRunMatchesStepRandomPrograms through both
// interpreters.
func TestStepMatchesReferenceRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 8*(rng.Intn(48)+2))
		rng.Read(data)
		p := fuzzProgram(data)
		if p == nil {
			continue
		}
		hooked := trial%2 == 0
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			lockstep(t, p, 1<<8, 4096, hooked)
		})
	}
}

// TestStepMatchesReferenceEdgeCases covers the control-flow and
// register corners of TestRunEdgeCases — an invalid opcode (stepped
// again after its error), PCs out of range, stepping a halted machine,
// writes to R0 and across the int/FP namespaces, and jr to a wild PC.
func TestStepMatchesReferenceEdgeCases(t *testing.T) {
	for _, p := range edgeCasePrograms() {
		t.Run(p.Name, func(t *testing.T) {
			lockstep(t, p, 0, 8192, true)
		})
	}
}
