// Package emu implements the functional emulator — the fast-forward
// engine of the sampling-simulation framework. It executes mini-ISA
// programs at interpreter speed while maintaining the committed
// instruction count, per-basic-block instruction counts (the raw
// material of basic-block vectors), and an optional taken-branch hook
// used by the dynamic loop profiler.
package emu

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"mlpa/internal/isa"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
)

// BranchHook observes taken control transfers. from is the PC of the
// transferring instruction, to the destination PC. Backward transfers
// (to <= from) delimit loop iterations.
//
// The contract, under Run: during the call the machine's PC is from,
// Insts counts every instruction up to and including the transfer, and
// BlockCounts is current; the register files are not. A hook may read
// those three, snapshot or reset BlockCounts, and must change nothing
// else. Step calls hooks with the full state current.
type BranchHook func(from, to int64)

// StepInfo describes one committed instruction for execution-driven
// timing simulation. The instruction is the program's Code[PC].
type StepInfo struct {
	PC      int64
	NextPC  int64
	MemAddr int64 // virtual byte address for loads/stores, else -1
	Taken   bool  // control transfer taken (always true for jumps)
}

// Machine is the architectural state of one program execution.
type Machine struct {
	Prog *prog.Program

	IntRegs [isa.NumIntRegs]int64
	FPRegs  [isa.NumFPRegs]float64

	// PC is the next instruction index to execute.
	PC     int64
	Halted bool

	// Insts is the number of committed instructions so far.
	Insts uint64

	// BlockCounts[b] is the number of instructions committed within
	// basic block b since the last ResetBlockCounts. This is the
	// instruction-weighted BBV accumulator.
	BlockCounts []uint64

	// Branch, if non-nil, is invoked for every taken control transfer,
	// under the contract documented on BranchHook. Run reads it once
	// per call.
	Branch BranchHook

	// Metrics, if non-nil, receives functional-execution rate metrics
	// from Run (gauge emu.mips, counter emu.run_insts). It adds one
	// branch per Run call, not per instruction.
	Metrics *obs.Registry

	// Data memory is memMask+1 words (a power of two), paged (see
	// dirty.go): pages[i] backs words [i*PageWords, (i+1)*PageWords)
	// and points at zeroPage until the page is first written.
	pages   []*[PageWords]uint64
	memMask int64
	written []int64              // allocated page indices, first-write order
	free    []*[PageWords]uint64 // zeroed pages ready for reuse
	blockOf []int32
	dec     *predecoded // shared per-program fast-path representation
}

// DefaultMemWords is the data-memory size used when a program does not
// declare one: 1M words = 8 MiB, comfortably larger than the L2.
const DefaultMemWords = 1 << 20

// New creates a Machine for p. memWords, if positive, overrides the
// data-memory size; it is rounded up to a power of two words. Memory
// starts as a page table over the shared zero page, so New costs
// O(memory / PageWords), and pages are allocated as they are written.
func New(p *prog.Program, memWords int64) *Machine {
	if memWords <= 0 {
		memWords = (p.DataSize + 7) / 8
		if memWords < DefaultMemWords {
			memWords = DefaultMemWords
		}
	}
	words := int64(1)
	for words < memWords {
		words <<= 1
	}
	pages := make([]*[PageWords]uint64, (words+PageWords-1)/PageWords)
	for i := range pages {
		pages[i] = &zeroPage
	}
	return &Machine{
		Prog:        p,
		pages:       pages,
		memMask:     words - 1,
		blockOf:     p.BlockTable(),
		BlockCounts: make([]uint64, p.NumBlocks()),
		dec:         predecode(p),
	}
}

// Clone returns an independent deep copy of the machine (registers,
// memory, counters). Hooks are not copied. It copies the page table and
// the written pages. The pipeline never clones — self-warming rewinds
// through a ckpt capture — so its callers are tests and perfbench's
// traced replay.
func (m *Machine) Clone() *Machine {
	c := &Machine{
		Prog:        m.Prog,
		IntRegs:     m.IntRegs,
		FPRegs:      m.FPRegs,
		PC:          m.PC,
		Halted:      m.Halted,
		Insts:       m.Insts,
		pages:       slices.Clone(m.pages),
		memMask:     m.memMask,
		written:     slices.Clone(m.written),
		blockOf:     m.blockOf,
		BlockCounts: slices.Clone(m.BlockCounts),
		dec:         m.dec,
	}
	slab := make([][PageWords]uint64, len(m.written))
	for i, pi := range m.written {
		slab[i] = *m.pages[pi]
		c.pages[pi] = &slab[i]
	}
	return c
}

// Reset rewinds the machine to the initial state (registers, memory,
// PC, counters all zero). It zeroes only the written pages and keeps
// them for reuse, so a reset costs O(touched memory), not O(memory) —
// which is what makes restoring a sequence of checkpoints into one
// machine cheap.
func (m *Machine) Reset() {
	m.IntRegs = [isa.NumIntRegs]int64{}
	m.FPRegs = [isa.NumFPRegs]float64{}
	for _, pi := range m.written {
		pg := m.pages[pi]
		clear(pg[:])
		m.free = append(m.free, pg)
		m.pages[pi] = &zeroPage
	}
	m.written = m.written[:0]
	m.PC = 0
	m.Halted = false
	m.Insts = 0
	m.ResetBlockCounts()
}

// ResetBlockCounts zeroes the BBV accumulator (used at interval
// boundaries).
func (m *Machine) ResetBlockCounts() {
	clear(m.BlockCounts)
}

// SnapshotBlockCounts returns a copy of the BBV accumulator.
func (m *Machine) SnapshotBlockCounts() []uint64 {
	out := make([]uint64, len(m.BlockCounts))
	copy(out, m.BlockCounts)
	return out
}

// MemWords returns the data-memory size in 64-bit words.
func (m *Machine) MemWords() int64 { return m.memMask + 1 }

// LoadWord reads the data word at virtual byte address addr.
func (m *Machine) LoadWord(addr int64) uint64 {
	w := (addr >> 3) & m.memMask
	return m.pages[w>>pageShift][w&(PageWords-1)]
}

// StoreWord writes the data word at virtual byte address addr.
func (m *Machine) StoreWord(addr int64, v uint64) {
	w := (addr >> 3) & m.memMask
	m.writable(w)[w&(PageWords-1)] = v
}

// Step executes a single instruction and reports what happened. It is
// the execution-driven interface the detailed timing model drives, for
// its fetch stage and for functional warming alike, and it executes
// from the same per-program predecoded form as Run (see predecode.go):
// register slots already resolved, shift and LUI immediates already
// applied, branch targets in imm. The instruction itself is
// m.Prog.Code[info.PC]. A Branch hook sees the full state current: the
// registers written, Insts and BlockCounts counting the transfer, and
// PC still at the transferring instruction.
func (m *Machine) Step() (StepInfo, error) {
	if m.Halted {
		return StepInfo{}, fmt.Errorf("emu: program %q already halted", m.Prog.Name)
	}
	pc := m.PC
	dc := m.dec.code
	if pc < 0 || pc >= int64(len(dc)) {
		m.Halted = true
		return StepInfo{}, fmt.Errorf("emu: program %q: PC %d out of range", m.Prog.Name, pc)
	}
	d := &dc[pc]

	m.BlockCounts[m.blockOf[pc]]++
	m.Insts++

	next := pc + 1
	addr := int64(-1)
	taken := false
	F := &m.FPRegs

	op := isa.Op(d.op)
	switch op {
	case isa.OpNop:
	case isa.OpHalt:
		m.Halted = true
		next = pc
	case isa.OpAdd:
		m.wi(d.rd, m.ri(d.rs1)+m.ri(d.rs2))
	case isa.OpSub:
		m.wi(d.rd, m.ri(d.rs1)-m.ri(d.rs2))
	case isa.OpMul:
		m.wi(d.rd, m.ri(d.rs1)*m.ri(d.rs2))
	case isa.OpDiv:
		if v := m.ri(d.rs2); v == 0 {
			m.wi(d.rd, 0)
		} else {
			m.wi(d.rd, m.ri(d.rs1)/v)
		}
	case isa.OpRem:
		if v := m.ri(d.rs2); v == 0 {
			m.wi(d.rd, 0)
		} else {
			m.wi(d.rd, m.ri(d.rs1)%v)
		}
	case isa.OpAnd:
		m.wi(d.rd, m.ri(d.rs1)&m.ri(d.rs2))
	case isa.OpOr:
		m.wi(d.rd, m.ri(d.rs1)|m.ri(d.rs2))
	case isa.OpXor:
		m.wi(d.rd, m.ri(d.rs1)^m.ri(d.rs2))
	case isa.OpShl:
		m.wi(d.rd, m.ri(d.rs1)<<(uint64(m.ri(d.rs2))&63))
	case isa.OpShr:
		m.wi(d.rd, int64(uint64(m.ri(d.rs1))>>(uint64(m.ri(d.rs2))&63)))
	case isa.OpSlt:
		m.wi(d.rd, b2i(m.ri(d.rs1) < m.ri(d.rs2)))
	case isa.OpAddi:
		m.wi(d.rd, m.ri(d.rs1)+d.imm)
	case isa.OpAndi:
		m.wi(d.rd, m.ri(d.rs1)&d.imm)
	case isa.OpOri:
		m.wi(d.rd, m.ri(d.rs1)|d.imm)
	case isa.OpXori:
		m.wi(d.rd, m.ri(d.rs1)^d.imm)
	case isa.OpShli:
		m.wi(d.rd, m.ri(d.rs1)<<uint64(d.imm))
	case isa.OpShri:
		m.wi(d.rd, int64(uint64(m.ri(d.rs1))>>uint64(d.imm)))
	case isa.OpSlti:
		m.wi(d.rd, b2i(m.ri(d.rs1) < d.imm))
	case isa.OpLui:
		m.wi(d.rd, d.imm)
	case isa.OpLd:
		addr = m.ri(d.rs1) + d.imm
		m.wi(d.rd, int64(m.LoadWord(addr)))
	case isa.OpSt:
		addr = m.ri(d.rs1) + d.imm
		m.StoreWord(addr, uint64(m.ri(d.rs2)))
	case isa.OpFld:
		addr = m.ri(d.rs1) + d.imm
		m.wf(d.fd, math.Float64frombits(m.LoadWord(addr)))
	case isa.OpFst:
		addr = m.ri(d.rs1) + d.imm
		m.StoreWord(addr, math.Float64bits(F[d.fs2&31]))
	case isa.OpFadd:
		m.wf(d.fd, F[d.fs1&31]+F[d.fs2&31])
	case isa.OpFsub:
		m.wf(d.fd, F[d.fs1&31]-F[d.fs2&31])
	case isa.OpFmul:
		m.wf(d.fd, F[d.fs1&31]*F[d.fs2&31])
	case isa.OpFdiv:
		m.wf(d.fd, F[d.fs1&31]/F[d.fs2&31])
	case isa.OpFneg:
		m.wf(d.fd, -F[d.fs1&31])
	case isa.OpFmov:
		m.wf(d.fd, F[d.fs1&31])
	case isa.OpCvtIF:
		m.wf(d.fd, float64(m.ri(d.rs1)))
	case isa.OpCvtFI:
		if f := F[d.fs1&31]; math.IsNaN(f) || math.IsInf(f, 0) {
			m.wi(d.rd, 0)
		} else {
			m.wi(d.rd, int64(f))
		}
	case isa.OpFcmpLt:
		m.wi(d.rd, b2i(F[d.fs1&31] < F[d.fs2&31]))
	case isa.OpFcmpEq:
		m.wi(d.rd, b2i(F[d.fs1&31] == F[d.fs2&31]))
	case isa.OpBeq:
		taken = m.ri(d.rs1) == m.ri(d.rs2)
	case isa.OpBne:
		taken = m.ri(d.rs1) != m.ri(d.rs2)
	case isa.OpBlt:
		taken = m.ri(d.rs1) < m.ri(d.rs2)
	case isa.OpBge:
		taken = m.ri(d.rs1) >= m.ri(d.rs2)
	case isa.OpJmp:
		taken = true
	case isa.OpJal:
		m.wi(d.rd, pc+1)
		taken = true
	case isa.OpJr:
		taken = true
		next = m.ri(d.rs1)
	default:
		return StepInfo{PC: pc, MemAddr: -1}, fmt.Errorf("emu: program %q: unimplemented opcode %v at pc %d", m.Prog.Name, op, pc)
	}

	if taken {
		if op != isa.OpJr {
			next = d.imm
		}
		if m.Branch != nil {
			m.Branch(pc, next)
		}
	}
	m.PC = next
	return StepInfo{PC: pc, NextPC: next, MemAddr: addr, Taken: taken}, nil
}

// Run executes up to maxInsts instructions (or until halt if maxInsts
// is 0) and returns the number executed. It is the one fast path for
// functional fast-forwarding and profiling alike: the program is
// executed from its predecoded form in basic-block batches (see
// predecode.go and run.go), which is bit-identical to driving the
// machine with Step but several times faster. A Branch hook attached
// at entry is called under the contract on BranchHook.
func (m *Machine) Run(maxInsts uint64) (uint64, error) {
	var t0 time.Time
	if m.Metrics != nil {
		t0 = time.Now() //mlpalint:allow time-now (metrics wall clock, not simulated state)
	}
	var done uint64
	var err error
	switch {
	case m.Halted:
		// Nothing to do; like a Step loop, a halted machine runs
		// zero instructions without error.
	default:
		done, err = m.runFast(maxInsts)
	}
	if m.Metrics != nil && done > 0 {
		if secs := time.Since(t0).Seconds(); secs > 0 {
			m.Metrics.Gauge("emu.mips").Set(float64(done) / secs / 1e6)
		}
		m.Metrics.Counter("emu.run_insts").Add(int64(done))
	}
	return done, err
}

// runToSlice bounds the instructions RunTo executes between context
// checks, keeping cancellation latency in the low milliseconds.
const runToSlice = 1 << 20

// RunTo fast-forwards the machine to instruction position pos (its
// committed-instruction count) and returns the number of instructions
// executed. It runs in slices of at most 2^20 instructions, checks ctx
// before each, and fails if the program halts before pos. A machine
// already at or past pos is left where it is.
func (m *Machine) RunTo(ctx context.Context, pos uint64) (uint64, error) {
	var done uint64
	for m.Insts < pos {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		if m.Halted {
			return done, fmt.Errorf("emu: program %q halted at instruction %d before reaching %d", m.Prog.Name, m.Insts, pos)
		}
		n, err := m.Run(min(pos-m.Insts, runToSlice))
		done += n
		if err != nil {
			return done, fmt.Errorf("fast-forward to instruction %d: %w", pos, err)
		}
	}
	return done, nil
}

// RunToCompletion executes until the program halts, with a safety
// bound to catch runaway programs.
func (m *Machine) RunToCompletion(bound uint64) (uint64, error) {
	n, err := m.Run(bound)
	if err != nil {
		return n, err
	}
	if !m.Halted {
		return n, fmt.Errorf("emu: program %q did not halt within %d instructions", m.Prog.Name, bound)
	}
	return n, nil
}

// ri reads predecoded integer source slot s; the constant-zero slot
// intZero (a read of R0) reads as zero.
func (m *Machine) ri(s uint8) int64 {
	if s >= isa.NumIntRegs {
		return 0
	}
	return m.IntRegs[s]
}

// wi writes predecoded integer destination slot s; the sink slot
// intSink (a write to R0 or to an FP register name) is discarded.
func (m *Machine) wi(s uint8, v int64) {
	if s < isa.NumIntRegs {
		m.IntRegs[s] = v
	}
}

// wf writes predecoded FP destination slot s; the sink slot fpSink (a
// write to an integer register name) is discarded.
func (m *Machine) wf(s uint8, v float64) {
	if s < isa.NumFPRegs {
		m.FPRegs[s] = v
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
