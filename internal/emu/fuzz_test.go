package emu

// FuzzRunVsStep is the differential fuzz target for the predecoded
// interpreters: arbitrary bytes become a short program (including
// invalid opcodes, cross-namespace register names, and out-of-range
// branch targets), and the fast Run loop — superblock traces included —
// must produce bit-identical machine state, counts, errors, and hook
// observations to the reference loop (runStep over the frozen refStep)
// under the same budget schedule. Hooked inputs additionally attach and
// detach the hook between chunks, at whatever trace-interior PC the
// budget expired on. A second leg drives Step and refStep in lockstep
// over the same program (see step_test.go).

import (
	"encoding/binary"
	"math"
	"testing"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// fuzzProgram decodes data into a program, 8 bytes per instruction:
//
//	b0      opcode, modulo NumOps+2 so invalid opcodes appear
//	b1..b3  rd, rs1, rs2 across the full 64-name register space
//	b4,b5   16-bit signed immediate
//	b6      branch/jump target: in-range when b7 is even, raw
//	        (possibly negative or past the end) when odd
//
// Returns nil when data is too short for even one instruction.
func fuzzProgram(data []byte) *prog.Program {
	n := len(data) / 8
	if n == 0 {
		return nil
	}
	code := make([]isa.Inst, n)
	for i := 0; i < n; i++ {
		b := data[i*8 : i*8+8]
		targ := int64(int8(b[6]))
		if b[7]&1 == 0 {
			targ = ((targ % int64(n)) + int64(n)) % int64(n)
		}
		code[i] = isa.Inst{
			Op:   isa.Op(b[0] % uint8(isa.NumOps+2)),
			Rd:   isa.Reg(b[1] & 63),
			Rs1:  isa.Reg(b[2] & 63),
			Rs2:  isa.Reg(b[3] & 63),
			Imm:  int64(int16(binary.LittleEndian.Uint16(b[4:6]))),
			Targ: targ,
		}
	}
	return &prog.Program{Name: "fuzz", Code: code}
}

// hookEvent is what a hook may observe under the BranchHook contract
// (BlockCounts is compared by TestRunMatchesStepLoopSnapshotHook).
type hookEvent struct {
	from, to, pc int64
	insts        uint64
}

func FuzzRunVsStep(f *testing.F) {
	// Seed a halt, a counting loop, an invalid opcode, and a jr.
	f.Add([]byte{0}, false)
	f.Add([]byte{
		0, byte(isa.OpAddi), 1, 0, 0, 5, 0, 0, 0,
		byte(isa.OpAddi), 1, 1, 0, 0xff, 0xff, 0, 0,
		byte(isa.OpBne), 0, 1, 0, 0, 0, 1, 0,
		byte(isa.OpHalt), 0, 0, 0, 0, 0, 0, 0,
	}, true)
	f.Add([]byte{
		3, byte(isa.NumOps), 0, 0, 0, 0, 0, 0, 0,
		byte(isa.OpJr), 0, 1, 0, 0, 0, 0, 1,
	}, false)
	f.Fuzz(func(t *testing.T, data []byte, hooked bool) {
		if len(data) < 9 {
			return
		}
		cfg := data[0]
		p := fuzzProgram(data[1:])
		if p == nil {
			return
		}
		// A bounded schedule: never Run(0), since fuzz programs may
		// loop forever. Cap total work at a few thousand instructions.
		budgets := []uint64{uint64(cfg)%97 + 1, uint64(cfg)%13 + 1, 4096}

		fast := New(p, 1<<8)
		ref := New(p, 1<<8)
		var evFast, evRef []hookEvent
		attach := func(on bool) {
			if !on {
				fast.Branch, ref.Branch = nil, nil
				return
			}
			fast.Branch = func(from, to int64) {
				evFast = append(evFast, hookEvent{from, to, fast.PC, fast.Insts})
			}
			ref.Branch = func(from, to int64) {
				evRef = append(evRef, hookEvent{from, to, ref.PC, ref.Insts})
			}
		}
		for bi, budget := range budgets {
			// Hooked inputs toggle the hook between chunks, driven by cfg
			// bits: budget boundaries land at arbitrary instruction counts,
			// i.e. at PCs inside regions the superblock engine covers with
			// traces, so every attach exercises the trace→hooked state
			// flush and every detach the re-entry into trace dispatch.
			if hooked {
				attach(cfg>>(bi&7)&1 == 0)
			}
			nFast, errFast := fast.Run(budget)
			nRef, errRef := ref.runStep(budget)
			if nFast != nRef {
				t.Fatalf("executed %d != reference %d", nFast, nRef)
			}
			if (errFast == nil) != (errRef == nil) ||
				(errFast != nil && errFast.Error() != errRef.Error()) {
				t.Fatalf("error %v != reference %v", errFast, errRef)
			}
			fuzzCompare(t, fast, ref)
			if errFast != nil || fast.Halted {
				break
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

		// Second leg: Step against the reference, one instruction at a
		// time over the same program.
		lockstep(t, p, 1<<8, 4096, hooked)
	})
}

func fuzzCompare(t *testing.T, fast, ref *Machine) {
	t.Helper()
	if fast.PC != ref.PC || fast.Halted != ref.Halted {
		t.Fatalf("control state diverges: PC %d/%d Halted %v/%v",
			fast.PC, ref.PC, fast.Halted, ref.Halted)
	}
	if fast.Insts != ref.Insts {
		t.Fatalf("Insts %d != reference %d", fast.Insts, ref.Insts)
	}
	if fast.IntRegs != ref.IntRegs {
		t.Fatalf("IntRegs diverge:\n  fast %v\n  ref  %v", fast.IntRegs, ref.IntRegs)
	}
	for i := range fast.FPRegs {
		if math.Float64bits(fast.FPRegs[i]) != math.Float64bits(ref.FPRegs[i]) {
			t.Fatalf("FPRegs[%d] %x != reference %x", i,
				math.Float64bits(fast.FPRegs[i]), math.Float64bits(ref.FPRegs[i]))
		}
	}
	for i := range fast.BlockCounts {
		if fast.BlockCounts[i] != ref.BlockCounts[i] {
			t.Fatalf("BlockCounts[%d] %d != reference %d", i, fast.BlockCounts[i], ref.BlockCounts[i])
		}
	}
	compareMemory(t, fast, ref, "fuzz")
}
