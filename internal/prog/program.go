// Package prog represents executable programs for the mini ISA:
// instruction sequences with labels, basic-block decomposition, a
// control-flow graph, and static loop metadata. It also provides a
// structured Builder for generating programs and a text assembler.
package prog

import (
	"fmt"
	"sort"
	"sync"

	"mlpa/internal/isa"
)

// Program is a complete executable for the emulator and the detailed
// simulator.
type Program struct {
	Name   string
	Code   []isa.Inst
	Labels map[string]int64 // label -> instruction index

	// Loops carries static loop metadata recorded by the Builder
	// (ground truth used by tests; the dynamic profiler must discover
	// the same structure on its own).
	Loops []LoopInfo

	// DataSize is the number of bytes of data memory the program
	// expects to be available starting at address 0.
	DataSize int64

	blocksOnce sync.Once // guards the lazy computeBlocks below
	blocks     []BasicBlock
	blockOf    []int32 // instruction index -> basic block ID

	// aux caches derived representations keyed by a consumer-specific
	// key (see Aux). Attaching caches to the Program keeps their
	// lifetime tied to the program's instead of pinning dead programs
	// in a global registry.
	aux sync.Map
}

// LoopInfo describes a static loop recorded by the Builder.
type LoopInfo struct {
	Name  string
	Head  int64 // first instruction of the loop body
	End   int64 // first instruction after the loop (backward branch is at End-1)
	Depth int   // nesting depth, 0 = outermost
}

// BasicBlock is a maximal single-entry straight-line code region
// [Start, End) in instruction indices.
type BasicBlock struct {
	ID    int
	Start int64
	End   int64
}

// Len returns the number of instructions in the block.
func (b BasicBlock) Len() int64 { return b.End - b.Start }

// Validate checks structural invariants: register operands and branch
// targets in range, a halt instruction reachable, labels consistent.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("prog %q: empty program", p.Name)
	}
	n := int64(len(p.Code))
	haveHalt := false
	for i, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("prog %q: instruction %d: invalid opcode", p.Name, i)
		}
		if r, ok := badRegister(in); ok {
			return fmt.Errorf("prog %q: instruction %d (%s): register %d out of range [0,%d)", p.Name, i, in, r, numRegs)
		}
		if in.Op == isa.OpHalt {
			haveHalt = true
		}
		if in.Op.HasTarget() && (in.Targ < 0 || in.Targ >= n) {
			return fmt.Errorf("prog %q: instruction %d (%s): target %d out of range [0,%d)", p.Name, i, in, in.Targ, n)
		}
	}
	if !haveHalt {
		return fmt.Errorf("prog %q: no halt instruction", p.Name)
	}
	for name, idx := range p.Labels {
		if idx < 0 || idx > n {
			return fmt.Errorf("prog %q: label %q out of range", p.Name, name)
		}
	}
	return nil
}

// numRegs is the size of the unified register namespace: integer
// registers, then floating-point ones from isa.FPBase.
const numRegs = isa.FPBase + isa.NumFPRegs

// badRegister returns the first of in's register operands, as the
// opcode table lists them, that names no register.
func badRegister(in isa.Inst) (isa.Reg, bool) {
	for _, x := range in.Op.Operands() {
		r := in.Rs1 // FieldRs1, and the base register of FieldMem
		switch {
		case x.File == isa.NoRegFile:
			continue
		case x.Field == isa.FieldRd:
			r = in.Rd
		case x.Field == isa.FieldRs2:
			r = in.Rs2
		}
		if r >= numRegs {
			return r, true
		}
	}
	return 0, false
}

// BasicBlocks returns the basic-block decomposition, computing and
// caching it on first use.
func (p *Program) BasicBlocks() []BasicBlock {
	p.blocksOnce.Do(p.computeBlocks)
	return p.blocks
}

// NumBlocks returns the number of basic blocks.
func (p *Program) NumBlocks() int { return len(p.BasicBlocks()) }

// BlockOf returns the ID of the basic block containing instruction
// index pc. It panics if pc is out of range.
func (p *Program) BlockOf(pc int64) int {
	p.blocksOnce.Do(p.computeBlocks)
	return int(p.blockOf[pc])
}

// BlockTable returns the instruction-index-to-block-ID table; entry i
// is the block containing instruction i. The caller must not modify
// the returned slice.
func (p *Program) BlockTable() []int32 {
	p.blocksOnce.Do(p.computeBlocks)
	return p.blockOf
}

// Aux returns the derived representation of the program registered
// under key, building it with build on first use. The emulator stores
// its predecoded form here; any package deriving an expensive
// per-program structure may do the same with its own unexported key
// type. Concurrent first calls may each invoke build; exactly one
// result is kept and returned to everybody. Like the cached
// basic-block decomposition, cached values assume Code is not mutated
// after the first derivation.
func (p *Program) Aux(key any, build func() any) any {
	if v, ok := p.aux.Load(key); ok {
		return v
	}
	v, _ := p.aux.LoadOrStore(key, build())
	return v
}

func (p *Program) computeBlocks() {
	n := int64(len(p.Code))
	leaders := map[int64]bool{0: true}
	for i, in := range p.Code {
		if !in.Op.IsBranch() {
			continue
		}
		if in.Op.HasTarget() && in.Targ >= 0 && in.Targ < n {
			leaders[in.Targ] = true
		}
		if int64(i)+1 < n {
			leaders[int64(i)+1] = true
		}
	}
	starts := make([]int64, 0, len(leaders))
	for s := range leaders {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	p.blocks = make([]BasicBlock, len(starts))
	p.blockOf = make([]int32, n)
	for i, s := range starts {
		end := n
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		p.blocks[i] = BasicBlock{ID: i, Start: s, End: end}
		for pc := s; pc < end; pc++ {
			p.blockOf[pc] = int32(i)
		}
	}
}

// Disassemble renders the whole program, annotating labels.
func (p *Program) Disassemble() string {
	byIdx := make(map[int64][]string)
	for name, idx := range p.Labels {
		byIdx[idx] = append(byIdx[idx], name)
	}
	var out []byte
	for i, in := range p.Code {
		if names, ok := byIdx[int64(i)]; ok {
			sort.Strings(names)
			for _, name := range names {
				out = append(out, (name + ":\n")...)
			}
		}
		out = append(out, fmt.Sprintf("%6d:  %s\n", i, in)...)
	}
	return string(out)
}
