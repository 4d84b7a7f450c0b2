package emu

// The fast execution loop. Run drives runFast, one monomorphic loop
// over the predecoded program: registers held in local arrays, per-
// block instead of per-instruction accounting, superblock traces when
// no Branch hook is attached, and zero indirect calls unless a hook is.
// The same loop serves fast-forward and profiling; with a hook it
// publishes PC and Insts before each taken-transfer call (see
// BranchHook for the contract).
//
// runFast is bit-identical to driving the machine one instruction at a
// time: same final registers, memory, PC, Insts, BlockCounts, halt
// state, same returned instruction count, same errors on the same
// inputs, and the same (from, to, PC, Insts, BlockCounts) at every hook
// call. TestRunMatchesStepLoop and FuzzRunVsStep enforce the contract
// against the frozen reference interpreter in the package's tests.

import (
	"fmt"

	"mlpa/internal/isa"
)

// runFast is the batched loop. The register files live in local
// 64-entry arrays (slots 32/33 implement the zero and sink registers,
// see predecode.go) and are flushed back on every exit path; counters
// are accumulated locally and flushed once. When the PC sits on a
// superblock trace head (trace.go) and the full trace fits the
// remaining budget, the whole multi-block trace runs as one execSpan
// call; a failing guard side-exits with exact prefix accounting, and
// everything else — cold blocks, budget tails, invalid opcodes —
// stays on the block-batched path below.
//
// With a Branch hook attached the loop skips traces, since a trace
// stitches taken branches away, and calls the hook on every taken
// transfer with the state the hook contract promises (see fire).
func (m *Machine) runFast(maxInsts uint64) (uint64, error) {
	d := m.dec
	dc := d.code
	spans := d.span
	hook := m.Branch
	traces := d.traces
	if hook != nil {
		traces = nil
	}
	codeLen := int64(len(dc))
	blockOf := m.blockOf
	bc := m.BlockCounts

	var R [64]int64
	copy(R[:32], m.IntRegs[:])
	var F [64]float64
	copy(F[:32], m.FPRegs[:])

	pc := m.PC
	insts0 := m.Insts
	var done, uncounted uint64
	var err error

loop:
	for maxInsts == 0 || done < maxInsts {
		if pc < 0 || pc >= codeLen {
			m.Halted = true
			err = fmt.Errorf("emu: program %q: PC %d out of range", m.Prog.Name, pc)
			break
		}
		if traces != nil {
			if tr := traces[pc]; tr != nil && (maxInsts == 0 || tr.total <= maxInsts-done) {
				if gi := execSpan(tr.code, 0, int64(len(tr.code)), &R, &F, m); gi >= 0 {
					// Side exit: the guard at flat index gi failed. Its
					// accounting snapshot covers exactly the segments
					// that committed (the guard's own branch included).
					g := tr.guards[tr.code[gi].fd]
					for _, s := range tr.segs[:g.seg+1] {
						bc[s.block] += uint64(s.n)
					}
					done += g.insts
					pc = tr.code[gi].imm
				} else {
					for _, a := range tr.acct {
						bc[a.block] += a.n
					}
					done += tr.total
					pc = tr.endPC
				}
				continue
			}
		}
		sp := int64(spans[pc])
		if sp == 0 {
			// Invalid opcode: reproduce Step's exact accounting — the
			// instruction is counted in Insts and BlockCounts, the PC
			// does not advance, and the caller's executed count
			// excludes it (Run never increments done on an error).
			bc[blockOf[pc]]++
			uncounted = 1
			err = fmt.Errorf("emu: program %q: unimplemented opcode %v at pc %d", m.Prog.Name, isa.Op(dc[pc].op), pc)
			break
		}
		if maxInsts != 0 {
			if rem := maxInsts - done; uint64(sp) > rem {
				// Budget expires mid-batch. Everything before a
				// batch's final instruction is plain straight-line
				// code, so the partial prefix needs no terminator
				// handling.
				execSpan(dc, pc, pc+int64(rem), &R, &F, m)
				bc[blockOf[pc]] += rem
				done += rem
				pc += int64(rem)
				break
			}
		}
		bc[blockOf[pc]] += uint64(sp)
		done += uint64(sp)
		last := pc + sp - 1
		t := &dc[last]
		// Each case either leaves pc at the fall-through successor and
		// continues, or sets it to a taken transfer's target and drops
		// out of the switch to the hook call below.
		switch isa.Op(t.op) {
		case isa.OpHalt:
			execSpan(dc, pc, last, &R, &F, m)
			m.Halted = true
			pc = last
			break loop
		case isa.OpBeq:
			execSpan(dc, pc, last, &R, &F, m)
			if R[t.rs1&63] != R[t.rs2&63] {
				pc = last + 1
				continue
			}
			pc = t.imm
		case isa.OpBne:
			execSpan(dc, pc, last, &R, &F, m)
			if R[t.rs1&63] == R[t.rs2&63] {
				pc = last + 1
				continue
			}
			pc = t.imm
		case isa.OpBlt:
			execSpan(dc, pc, last, &R, &F, m)
			if R[t.rs1&63] >= R[t.rs2&63] {
				pc = last + 1
				continue
			}
			pc = t.imm
		case isa.OpBge:
			execSpan(dc, pc, last, &R, &F, m)
			if R[t.rs1&63] < R[t.rs2&63] {
				pc = last + 1
				continue
			}
			pc = t.imm
		case isa.OpJmp:
			execSpan(dc, pc, last, &R, &F, m)
			pc = t.imm
		case isa.OpJal:
			execSpan(dc, pc, last, &R, &F, m)
			R[t.rd&63] = last + 1
			pc = t.imm
		case isa.OpJr:
			// Like Step, the jump target is read before the hook runs.
			execSpan(dc, pc, last, &R, &F, m)
			pc = R[t.rs1&63]
		default:
			// Fall-through batch: the final instruction is plain too.
			execSpan(dc, pc, last+1, &R, &F, m)
			pc = last + 1
			continue
		}
		if hook != nil {
			m.fire(hook, last, pc, insts0+done)
		}
	}

	copy(m.IntRegs[:], R[:32])
	copy(m.FPRegs[:], F[:32])
	m.PC = pc
	m.Insts = insts0 + done + uncounted
	return done, err
}

// fire calls hook for a taken transfer from the instruction at from to
// to. It publishes the transferring PC and the instruction count so
// far (insts, the transfer included), which is all the BranchHook
// contract promises; the register files stay in runFast's locals.
func (m *Machine) fire(hook BranchHook, from, to int64, insts uint64) {
	m.PC = from
	m.Insts = insts
	hook(from, to)
}
