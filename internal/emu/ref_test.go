package emu

// The frozen reference interpreter. refStep is Step as it was before
// Step executed from the predecoded form: it decodes each isa.Inst from
// the program's code and reads and writes registers through geti,
// getf, setInt and setFP. runStep is the per-instruction loop Run was
// once built on. Only the lines naming the Machine's removed code field
// changed. The Run≡Step tests (fastpath_test.go, fuzz_test.go) compare
// Run against runStep, and the lockstep tests (step_test.go) compare
// Step against refStep one instruction at a time.

import (
	"fmt"
	"math"

	"mlpa/internal/isa"
)

// refStepInfo is the StepInfo refStep reports: the fields Step reports
// plus the decoded instruction.
type refStepInfo struct {
	PC      int64
	Inst    isa.Inst
	NextPC  int64
	MemAddr int64 // virtual byte address for loads/stores, else -1
	Taken   bool  // control transfer taken (always true for jumps)
}

// refStep executes a single instruction and reports what happened.
func (m *Machine) refStep() (refStepInfo, error) {
	if m.Halted {
		return refStepInfo{}, fmt.Errorf("emu: program %q already halted", m.Prog.Name)
	}
	pc := m.PC
	code := m.Prog.Code
	if pc < 0 || pc >= int64(len(code)) {
		m.Halted = true
		return refStepInfo{}, fmt.Errorf("emu: program %q: PC %d out of range", m.Prog.Name, pc)
	}
	in := code[pc]
	info := refStepInfo{PC: pc, Inst: in, MemAddr: -1}

	m.BlockCounts[m.blockOf[pc]]++
	m.Insts++

	next := pc + 1
	taken := false

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		m.Halted = true
		next = pc
	case isa.OpAdd:
		m.setInt(in.Rd, m.geti(in.Rs1)+m.geti(in.Rs2))
	case isa.OpSub:
		m.setInt(in.Rd, m.geti(in.Rs1)-m.geti(in.Rs2))
	case isa.OpMul:
		m.setInt(in.Rd, m.geti(in.Rs1)*m.geti(in.Rs2))
	case isa.OpDiv:
		d := m.geti(in.Rs2)
		if d == 0 {
			m.setInt(in.Rd, 0)
		} else {
			m.setInt(in.Rd, m.geti(in.Rs1)/d)
		}
	case isa.OpRem:
		d := m.geti(in.Rs2)
		if d == 0 {
			m.setInt(in.Rd, 0)
		} else {
			m.setInt(in.Rd, m.geti(in.Rs1)%d)
		}
	case isa.OpAnd:
		m.setInt(in.Rd, m.geti(in.Rs1)&m.geti(in.Rs2))
	case isa.OpOr:
		m.setInt(in.Rd, m.geti(in.Rs1)|m.geti(in.Rs2))
	case isa.OpXor:
		m.setInt(in.Rd, m.geti(in.Rs1)^m.geti(in.Rs2))
	case isa.OpShl:
		m.setInt(in.Rd, m.geti(in.Rs1)<<(uint64(m.geti(in.Rs2))&63))
	case isa.OpShr:
		m.setInt(in.Rd, int64(uint64(m.geti(in.Rs1))>>(uint64(m.geti(in.Rs2))&63)))
	case isa.OpSlt:
		m.setInt(in.Rd, b2i(m.geti(in.Rs1) < m.geti(in.Rs2)))
	case isa.OpAddi:
		m.setInt(in.Rd, m.geti(in.Rs1)+in.Imm)
	case isa.OpAndi:
		m.setInt(in.Rd, m.geti(in.Rs1)&in.Imm)
	case isa.OpOri:
		m.setInt(in.Rd, m.geti(in.Rs1)|in.Imm)
	case isa.OpXori:
		m.setInt(in.Rd, m.geti(in.Rs1)^in.Imm)
	case isa.OpShli:
		m.setInt(in.Rd, m.geti(in.Rs1)<<(uint64(in.Imm)&63))
	case isa.OpShri:
		m.setInt(in.Rd, int64(uint64(m.geti(in.Rs1))>>(uint64(in.Imm)&63)))
	case isa.OpSlti:
		m.setInt(in.Rd, b2i(m.geti(in.Rs1) < in.Imm))
	case isa.OpLui:
		m.setInt(in.Rd, in.Imm<<16)
	case isa.OpLd:
		addr := m.geti(in.Rs1) + in.Imm
		info.MemAddr = addr
		m.setInt(in.Rd, int64(m.LoadWord(addr)))
	case isa.OpSt:
		addr := m.geti(in.Rs1) + in.Imm
		info.MemAddr = addr
		m.StoreWord(addr, uint64(m.geti(in.Rs2)))
	case isa.OpFld:
		addr := m.geti(in.Rs1) + in.Imm
		info.MemAddr = addr
		m.setFP(in.Rd, math.Float64frombits(m.LoadWord(addr)))
	case isa.OpFst:
		addr := m.geti(in.Rs1) + in.Imm
		info.MemAddr = addr
		m.StoreWord(addr, math.Float64bits(m.getf(in.Rs2)))
	case isa.OpFadd:
		m.setFP(in.Rd, m.getf(in.Rs1)+m.getf(in.Rs2))
	case isa.OpFsub:
		m.setFP(in.Rd, m.getf(in.Rs1)-m.getf(in.Rs2))
	case isa.OpFmul:
		m.setFP(in.Rd, m.getf(in.Rs1)*m.getf(in.Rs2))
	case isa.OpFdiv:
		m.setFP(in.Rd, m.getf(in.Rs1)/m.getf(in.Rs2))
	case isa.OpFneg:
		m.setFP(in.Rd, -m.getf(in.Rs1))
	case isa.OpFmov:
		m.setFP(in.Rd, m.getf(in.Rs1))
	case isa.OpCvtIF:
		m.setFP(in.Rd, float64(m.geti(in.Rs1)))
	case isa.OpCvtFI:
		f := m.getf(in.Rs1)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			m.setInt(in.Rd, 0)
		} else {
			m.setInt(in.Rd, int64(f))
		}
	case isa.OpFcmpLt:
		m.setInt(in.Rd, b2i(m.getf(in.Rs1) < m.getf(in.Rs2)))
	case isa.OpFcmpEq:
		m.setInt(in.Rd, b2i(m.getf(in.Rs1) == m.getf(in.Rs2)))
	case isa.OpBeq:
		taken = m.geti(in.Rs1) == m.geti(in.Rs2)
	case isa.OpBne:
		taken = m.geti(in.Rs1) != m.geti(in.Rs2)
	case isa.OpBlt:
		taken = m.geti(in.Rs1) < m.geti(in.Rs2)
	case isa.OpBge:
		taken = m.geti(in.Rs1) >= m.geti(in.Rs2)
	case isa.OpJmp:
		taken = true
	case isa.OpJal:
		m.setInt(in.Rd, pc+1)
		taken = true
	case isa.OpJr:
		taken = true
		next = m.geti(in.Rs1)
	default:
		return info, fmt.Errorf("emu: program %q: unimplemented opcode %v at pc %d", m.Prog.Name, in.Op, pc)
	}

	if taken && in.Op != isa.OpJr {
		next = in.Targ
	}
	if taken && m.Branch != nil {
		m.Branch(pc, next)
	}
	info.Taken = taken
	info.NextPC = next
	m.PC = next
	return info, nil
}

// runStep drives the machine with refStep, replicating the legacy Run
// semantics exactly.
func (m *Machine) runStep(maxInsts uint64) (uint64, error) {
	var done uint64
	for !m.Halted && (maxInsts == 0 || done < maxInsts) {
		if _, err := m.refStep(); err != nil {
			return done, err
		}
		done++
	}
	return done, nil
}

func (m *Machine) geti(r isa.Reg) int64 {
	if r == isa.RZero {
		return 0
	}
	return m.IntRegs[r&31]
}

func (m *Machine) getf(r isa.Reg) float64 {
	return m.FPRegs[r&31]
}

func (m *Machine) setInt(r isa.Reg, v int64) {
	if r != isa.RZero && !r.IsFP() {
		m.IntRegs[r&31] = v
	}
}

// setFP writes FP register r, discarding writes whose destination is
// not an FP register name — symmetric with setInt, which discards
// writes to R0 and to FP register names. Verifier-passing programs
// never hit the guard; it exists so malformed programs behave
// identically under Step and the predecoded fast path.
func (m *Machine) setFP(r isa.Reg, v float64) {
	if r.IsFP() {
		m.FPRegs[r&31] = v
	}
}
