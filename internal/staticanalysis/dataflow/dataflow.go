// Package dataflow implements register liveness of guest programs on
// top of the staticanalysis CFG: per-block gen/kill bitset summaries
// over both register files (plus memory-touch flags), a backward
// worklist fixpoint at block boundaries, its per-instruction refinement
// (LiveInAt, the checkpoint-grade live-in sets) and the statically-dead
// writes it implies.
//
// The per-instruction effects deliberately model the *machine's*
// semantics rather than the assembler's operand syntax: the emulator
// folds both register namespaces onto 32-entry files (reads go through
// r&31) and discards writes whose destination names the wrong file
// (wi drops R0 and FP-named destinations, wf drops non-FP names), so
// for example `add f3, r1, r2` reads r1/r2 and writes nothing, while
// `fadd f1, r5, r6` reads FP slots 5 and 6. Liveness computed from
// isa.Inst.Dests/Sources alone would be unsound for such
// cross-namespace operands; EffectOf mirrors emu.Machine.Step exactly,
// and emu's differential validator cross-checks it against the
// predecoded register slots instruction by instruction.
//
// The lattice is the powerset of the 64 register storage cells (bits
// 0..31 = integer file, 32..63 = FP file) ordered by inclusion, with
// union as join; memory is a single may-touch bit carried alongside
// (loads generate, nothing kills, so it needs no kill set). All
// transfer functions are monotone, so the worklist iteration reaches
// the least fixpoint. See docs/STATIC_ANALYSIS.md.
package dataflow

import (
	"fmt"
	"math/bits"
	"strings"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
	"mlpa/internal/staticanalysis"
)

// RegSet is a bitset over the 64 register storage cells: bit i for
// 0 <= i < 32 is integer register ri, bit 32+j is FP register fj. Bit 0
// is never set — IntRegs[0] is unwritable (every write that would land
// there is discarded by the machine), so reads of it are the constant 0
// rather than uses. Sets combine with the ordinary bit operators
// (| union, &^ difference, & intersection).
type RegSet uint64

// AllRegs is every readable register cell: r1..r31 and f0..f31.
const AllRegs = ^RegSet(1)

// cell returns the storage-cell bit register r resolves to: the
// emulator folds reads and writes onto 32-entry files with r&31, and
// the file is chosen by the FP-name predicate (r >= isa.FPBase).
func cell(r isa.Reg) RegSet {
	if r.IsFP() {
		return 1 << (32 | (uint(r) & 31))
	}
	return 1 << (uint(r) & 31)
}

// Of builds a set from register names (r0 contributes nothing: its
// cell is the hard-wired zero).
func Of(regs ...isa.Reg) RegSet {
	var s RegSet
	for _, r := range regs {
		s |= cell(r)
	}
	return s &^ 1
}

// Has reports whether the storage cell of r is in the set.
func (s RegSet) Has(r isa.Reg) bool { return s&cell(r) != 0 }

// Empty reports whether the set has no registers.
func (s RegSet) Empty() bool { return s == 0 }

// Count returns the number of registers in the set.
func (s RegSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Split decomposes the set into the two 32-bit per-file masks used by
// the journal schema (bit i of the first mask = ri, of the second =
// fi).
func (s RegSet) Split() (ints, fps uint32) {
	return uint32(s), uint32(s >> 32)
}

// FromMasks is the inverse of Split.
func FromMasks(ints, fps uint32) RegSet {
	return RegSet(ints) | RegSet(fps)<<32
}

// Regs lists the registers in the set in storage order (integer file
// first, then FP).
func (s RegSet) Regs() []isa.Reg {
	out := make([]isa.Reg, 0, s.Count())
	for v := uint64(s); v != 0; v &= v - 1 {
		out = append(out, isa.Reg(bits.TrailingZeros64(v)))
	}
	return out
}

// String renders the set as "{r1 r5 f0}"; the empty set is "{}".
func (s RegSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, r := range s.Regs() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(r.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// Effect is the architectural def/use summary of one instruction as
// the machine actually executes it: which register cells it may read
// (Use), the cell it writes (Def, at most one bit — discarded writes
// contribute nothing), and whether it touches data memory.
type Effect struct {
	Use   RegSet
	Def   RegSet
	Load  bool
	Store bool
}

// use is the read of register r through file f. Through the integer
// file (emu ri) the cell is r&31, and cell 0 reads as the constant 0 —
// not a use. Through the FP file it is always cell r&31 of the FP
// file; every FP cell is writable, so every read is a use.
func use(f isa.RegFile, r isa.Reg) RegSet {
	switch f {
	case isa.IntFile:
		return (1 << (uint(r) & 31)) &^ 1
	case isa.FPFile:
		return 1 << (32 | (uint(r) & 31))
	}
	return 0
}

// def is the write of register r through file f: through the integer
// file (emu wi) it is discarded for R0 and for FP-named destinations,
// through the FP file (emu wf) unless r names an FP register.
func def(f isa.RegFile, r isa.Reg) RegSet {
	switch {
	case f == isa.IntFile && r != isa.RZero && !r.IsFP():
		return 1 << (uint(r) & 31)
	case f == isa.FPFile && r.IsFP():
		return 1 << (32 | (uint(r) & 31))
	}
	return 0
}

// EffectOf computes the effect of one instruction, reading each
// register operand through the file the opcode table names for it.
// Invalid opcodes (which the emulator refuses to execute) are treated
// as reading everything and writing nothing, the conservative choice
// for a backward may-analysis.
func EffectOf(in isa.Inst) Effect {
	if !in.Op.Valid() {
		return Effect{Use: AllRegs, Load: true}
	}
	return Effect{
		Use:   use(in.Op.FileOf(isa.FieldRs1), in.Rs1) | use(in.Op.FileOf(isa.FieldRs2), in.Rs2),
		Def:   def(in.Op.FileOf(isa.FieldRd), in.Rd),
		Load:  in.Op.IsLoad(),
		Store: in.Op.IsStore(),
	}
}

// Dataflow is the full dataflow solution for one program: per-block
// gen/kill summaries and the liveness fixpoint over both register files
// and memory. Build one with New or share the per-program cached
// instance via For.
type Dataflow struct {
	Prog *prog.Program
	CFG  *staticanalysis.CFG

	// Effects[pc] is the effect of instruction pc.
	Effects []Effect

	// Gen[b] is the set of cells block b reads before writing them
	// (upward-exposed uses); Kill[b] the cells it writes. Loads/Stores
	// flag blocks that touch data memory.
	Gen, Kill     []RegSet
	Loads, Stores []bool

	// LiveIn/LiveOut are the liveness fixpoint at block boundaries;
	// MemLiveIn/MemLiveOut carry the may-read-memory bit alongside.
	LiveIn, LiveOut       []RegSet
	MemLiveIn, MemLiveOut []bool
}

type auxKey struct{}

// For returns the dataflow solution of p, computing it on first use and
// caching it on the program (prog.Program.Aux), so per-point liveness
// queries across the pipeline cost one analysis per program.
func For(p *prog.Program) *Dataflow {
	return p.Aux(auxKey{}, func() any { return New(p) }).(*Dataflow)
}

// New computes the dataflow solution of p.
func New(p *prog.Program) *Dataflow {
	d := &Dataflow{Prog: p, CFG: staticanalysis.BuildCFG(p)}
	d.Effects = make([]Effect, len(p.Code))
	for pc, in := range p.Code {
		d.Effects[pc] = EffectOf(in)
	}
	d.summarize()
	d.solveLiveness()
	return d
}

// summarize computes the per-block gen/kill summaries by one forward
// walk per block.
func (d *Dataflow) summarize() {
	n := d.CFG.NumBlocks()
	d.Gen = make([]RegSet, n)
	d.Kill = make([]RegSet, n)
	d.Loads = make([]bool, n)
	d.Stores = make([]bool, n)
	for id, b := range d.CFG.Blocks {
		var gen, kill RegSet
		for pc := b.Start; pc < b.End; pc++ {
			e := d.Effects[pc]
			gen |= e.Use &^ kill
			kill |= e.Def
			d.Loads[id] = d.Loads[id] || e.Load
			d.Stores[id] = d.Stores[id] || e.Store
		}
		d.Gen[id], d.Kill[id] = gen, kill
	}
}

// BlockRange returns the [start, end) instruction range of block id.
func (d *Dataflow) BlockRange(id int) (int64, int64) {
	b := d.CFG.Blocks[id]
	return b.Start, b.End
}

// checkPC validates an instruction index.
func (d *Dataflow) checkPC(pc int64) error {
	if pc < 0 || pc >= int64(len(d.Prog.Code)) {
		return fmt.Errorf("dataflow: program %q: pc %d out of range [0,%d)",
			d.Prog.Name, pc, len(d.Prog.Code))
	}
	return nil
}
