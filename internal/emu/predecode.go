package emu

// Predecoding lowers a prog.Program once into a dense internal
// representation the fast execution loops in run.go consume: register
// operands resolved to direct file indices (with the R0-reads-as-zero
// and discarded-write rules folded into dedicated slots), shift and
// LUI immediates pre-applied, and a per-PC straight-line batch length
// so the inner loop can account a whole basic block with one
// BlockCounts addition instead of one per instruction.
//
// The predecoded form is derived from Program.Code alone and cached on
// the Program via its Aux cache, so every Machine built for a program
// (by each profiling pass, checkpoint restore and ground-truth run)
// shares a single predecode pass.
// Like the basic-block decomposition, it assumes Code is not mutated
// after the first Machine is created.

import (
	"math"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// Register-slot encoding. The fast loops keep the integer file in a
// 64-entry array: slots 0..31 are the architectural registers,
// intZero is a constant-zero slot reads of R0 resolve to (never
// written), and intSink absorbs discarded writes (destinations of R0
// or a floating-point register name on an integer-writing opcode).
// The FP file works the same way with fpSink absorbing writes whose
// destination is not an FP register. Slot values are always < 64, so
// the loops index with &63 and the compiler drops every bounds check.
// Step works on the Machine's 32-entry files directly: its ri, wi and
// wf treat every slot from 32 up as the zero or sink slot.
const (
	intZero = 32
	intSink = 33
	fpSink  = 32
)

// dinst is one predecoded instruction, packed to 16 bytes so a basic
// block's worth of them stays within a cache line or two. No opcode
// uses both an immediate and a branch target, so they share one field:
// imm holds the (pre-masked, pre-shifted) immediate for ALU and memory
// ops and the absolute target for branch and jump ops.
type dinst struct {
	op  uint8 // isa.Op, known-valid (invalid opcodes get span 0)
	rd  uint8 // integer destination slot (or intSink)
	rs1 uint8 // integer source slot (or intZero)
	rs2 uint8
	fd  uint8 // FP destination slot (or fpSink)
	fs1 uint8 // FP source slot
	fs2 uint8
	_   uint8

	imm int64 // immediate, or absolute branch/jump target
}

// predecoded is the per-program fast-path representation.
type predecoded struct {
	code []dinst
	// span[pc] is the number of instructions in the straight-line
	// batch beginning at pc: execution from pc proceeds without any
	// control transfer, halt, or PC bounds concern until the batch's
	// final instruction, which is the only one that may redirect or
	// stop the machine. All instructions of a batch lie in one basic
	// block, so the whole batch is accounted to one BlockCounts entry.
	// A span of 0 marks an instruction the fast path must hand to the
	// exact Step fallback (an invalid opcode).
	span []int32
	// traces[pc] is the superblock trace rooted at pc, or nil; only
	// block leaders passing the stitching rules have one. See trace.go.
	traces []*strace
}

type predecodeKey struct{}

// predecode returns the cached predecoded form of p, building it on
// first use.
func predecode(p *prog.Program) *predecoded {
	return p.Aux(predecodeKey{}, func() any { return buildPredecode(p) }).(*predecoded)
}

func intRead(r isa.Reg) uint8 {
	if r == isa.RZero {
		return intZero
	}
	return uint8(r & 31)
}

func intWrite(r isa.Reg) uint8 {
	if r == isa.RZero || r.IsFP() {
		return intSink
	}
	return uint8(r & 31)
}

func fpWrite(r isa.Reg) uint8 {
	if !r.IsFP() {
		return fpSink
	}
	return uint8(r & 31)
}

func buildPredecode(p *prog.Program) *predecoded {
	n := len(p.Code)
	d := &predecoded{
		code: make([]dinst, n),
		span: make([]int32, n),
	}
	for i, in := range p.Code {
		di := dinst{
			op:  uint8(in.Op),
			rd:  intWrite(in.Rd),
			rs1: intRead(in.Rs1),
			rs2: intRead(in.Rs2),
			fd:  fpWrite(in.Rd),
			fs1: uint8(in.Rs1 & 31),
			fs2: uint8(in.Rs2 & 31),
			imm: in.Imm,
		}
		switch {
		case in.Op == isa.OpShli || in.Op == isa.OpShri:
			di.imm = int64(uint64(in.Imm) & 63)
		case in.Op == isa.OpLui:
			di.imm = in.Imm << 16
		case in.Op.IsBranch():
			di.imm = in.Targ
		}
		d.code[i] = di
	}
	// Batch spans, per basic block, computed backwards so each span
	// extends the successor's. A batch ends at the block's terminator,
	// at a halt (inclusive — halt stops the machine), or just before
	// an invalid opcode (exclusive — the invalid instruction itself is
	// executed by the exact Step fallback).
	for _, b := range p.BasicBlocks() {
		for pc := b.End - 1; pc >= b.Start; pc-- {
			op := p.Code[pc].Op
			switch {
			case !op.Valid():
				d.span[pc] = 0
			case op == isa.OpHalt, op.IsBranch():
				d.span[pc] = 1
			case pc+1 < b.End && d.span[pc+1] > 0:
				d.span[pc] = d.span[pc+1] + 1
			default:
				d.span[pc] = 1
			}
		}
	}
	d.traces = buildTraces(p, d)
	return d
}

// execSpan executes the instructions [from, to) against the given
// register files and memory. Callers guarantee the range contains only
// plain (non-control, non-halt, valid) operations plus, for trace
// code, the guard/link pseudo-ops — the predecoder's batch spans and
// the trace stitcher enforce this — so the body needs no PC bounds
// checks, no error paths, and no per-instruction accounting. The
// return value is the index (relative to dc) of the first failing
// guard, or -1 when the whole range ran; block-batched callers pass
// guard-free ranges and ignore it. Memory is m's page table (see
// dirty.go); stores go through m.writable.
func execSpan(dc []dinst, from, to int64, R *[64]int64, F *[64]float64, m *Machine) int64 {
	pages, mask := m.pages, m.memMask
	batch := dc[from:to]
	for i := range batch {
		d := &batch[i]
		switch isa.Op(d.op) {
		case isa.OpNop:
		case isa.OpAdd:
			R[d.rd&63] = R[d.rs1&63] + R[d.rs2&63]
		case isa.OpSub:
			R[d.rd&63] = R[d.rs1&63] - R[d.rs2&63]
		case isa.OpMul:
			R[d.rd&63] = R[d.rs1&63] * R[d.rs2&63]
		case isa.OpDiv:
			if v := R[d.rs2&63]; v == 0 {
				R[d.rd&63] = 0
			} else {
				R[d.rd&63] = R[d.rs1&63] / v
			}
		case isa.OpRem:
			if v := R[d.rs2&63]; v == 0 {
				R[d.rd&63] = 0
			} else {
				R[d.rd&63] = R[d.rs1&63] % v
			}
		case isa.OpAnd:
			R[d.rd&63] = R[d.rs1&63] & R[d.rs2&63]
		case isa.OpOr:
			R[d.rd&63] = R[d.rs1&63] | R[d.rs2&63]
		case isa.OpXor:
			R[d.rd&63] = R[d.rs1&63] ^ R[d.rs2&63]
		case isa.OpShl:
			R[d.rd&63] = R[d.rs1&63] << (uint64(R[d.rs2&63]) & 63)
		case isa.OpShr:
			R[d.rd&63] = int64(uint64(R[d.rs1&63]) >> (uint64(R[d.rs2&63]) & 63))
		case isa.OpSlt:
			R[d.rd&63] = b2i(R[d.rs1&63] < R[d.rs2&63])
		case isa.OpAddi:
			R[d.rd&63] = R[d.rs1&63] + d.imm
		case isa.OpAndi:
			R[d.rd&63] = R[d.rs1&63] & d.imm
		case isa.OpOri:
			R[d.rd&63] = R[d.rs1&63] | d.imm
		case isa.OpXori:
			R[d.rd&63] = R[d.rs1&63] ^ d.imm
		case isa.OpShli:
			R[d.rd&63] = R[d.rs1&63] << uint64(d.imm)
		case isa.OpShri:
			R[d.rd&63] = int64(uint64(R[d.rs1&63]) >> uint64(d.imm))
		case isa.OpSlti:
			R[d.rd&63] = b2i(R[d.rs1&63] < d.imm)
		case isa.OpLui:
			R[d.rd&63] = d.imm
		case isa.OpLd:
			w := ((R[d.rs1&63] + d.imm) >> 3) & mask
			R[d.rd&63] = int64(pages[w>>pageShift][w&(PageWords-1)])
		case isa.OpSt:
			w := ((R[d.rs1&63] + d.imm) >> 3) & mask
			m.writable(w)[w&(PageWords-1)] = uint64(R[d.rs2&63])
		case isa.OpFld:
			w := ((R[d.rs1&63] + d.imm) >> 3) & mask
			F[d.fd&63] = math.Float64frombits(pages[w>>pageShift][w&(PageWords-1)])
		case isa.OpFst:
			w := ((R[d.rs1&63] + d.imm) >> 3) & mask
			m.writable(w)[w&(PageWords-1)] = math.Float64bits(F[d.fs2&63])
		case isa.OpFadd:
			F[d.fd&63] = F[d.fs1&63] + F[d.fs2&63]
		case isa.OpFsub:
			F[d.fd&63] = F[d.fs1&63] - F[d.fs2&63]
		case isa.OpFmul:
			F[d.fd&63] = F[d.fs1&63] * F[d.fs2&63]
		case isa.OpFdiv:
			F[d.fd&63] = F[d.fs1&63] / F[d.fs2&63]
		case isa.OpFneg:
			F[d.fd&63] = -F[d.fs1&63]
		case isa.OpFmov:
			F[d.fd&63] = F[d.fs1&63]
		case isa.OpCvtIF:
			F[d.fd&63] = float64(R[d.rs1&63])
		case isa.OpCvtFI:
			f := F[d.fs1&63]
			if math.IsNaN(f) || math.IsInf(f, 0) {
				R[d.rd&63] = 0
			} else {
				R[d.rd&63] = int64(f)
			}
		case isa.OpFcmpLt:
			R[d.rd&63] = b2i(F[d.fs1&63] < F[d.fs2&63])
		case isa.OpFcmpEq:
			R[d.rd&63] = b2i(F[d.fs1&63] == F[d.fs2&63])
		case opGuardEQ:
			if R[d.rs1&63] != R[d.rs2&63] {
				return from + int64(i)
			}
		case opGuardNE:
			if R[d.rs1&63] == R[d.rs2&63] {
				return from + int64(i)
			}
		case opGuardLT:
			if R[d.rs1&63] >= R[d.rs2&63] {
				return from + int64(i)
			}
		case opGuardGE:
			if R[d.rs1&63] < R[d.rs2&63] {
				return from + int64(i)
			}
		case opLinkImm:
			R[d.rd&63] = d.imm
		}
	}
	return -1
}
