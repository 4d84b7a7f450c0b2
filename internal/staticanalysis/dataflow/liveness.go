package dataflow

import "sort"

// liveFact is the liveness lattice element: a set of register cells
// plus the may-read-memory bit. Memory has uses (loads) but no kill —
// the abstraction treats data memory as a single cell stores cannot
// fully overwrite — so its transfer is generate-only.
type liveFact struct {
	regs RegSet
	mem  bool
}

// solveLiveness runs the backward liveness fixpoint over the CFG. The
// boundary (blocks with no successors: halt blocks and jr blocks with
// no matching jal) is the empty set — nothing is live out of the
// program. Jal/jr call linkage is part of the CFG as a path superset
// of real executions, which keeps the may-analysis sound.
func (d *Dataflow) solveLiveness() {
	ins, outs := Solve(d.CFG,
		func(int) liveFact { return liveFact{} },
		func(acc, x liveFact) liveFact {
			return liveFact{acc.regs | x.regs, acc.mem || x.mem}
		},
		func(b int, out liveFact) liveFact {
			return liveFact{d.Gen[b] | (out.regs &^ d.Kill[b]), d.Loads[b] || out.mem}
		},
		func(a, b liveFact) bool { return a == b },
	)
	n := d.CFG.NumBlocks()
	d.LiveIn = make([]RegSet, n)
	d.LiveOut = make([]RegSet, n)
	d.MemLiveIn = make([]bool, n)
	d.MemLiveOut = make([]bool, n)
	for b := 0; b < n; b++ {
		d.LiveIn[b], d.MemLiveIn[b] = ins[b].regs, ins[b].mem
		d.LiveOut[b], d.MemLiveOut[b] = outs[b].regs, outs[b].mem
	}
}

// LiveInAt refines the block-level fixpoint to one instruction: the
// registers that may be read before being overwritten on some path
// starting at pc, plus whether data memory may be read. Every register
// outside the returned set can be zeroed at pc without changing the
// program's execution — the contract the pipeline's scrub harness and
// FuzzLiveness assert dynamically.
func (d *Dataflow) LiveInAt(pc int64) (RegSet, bool, error) {
	if err := d.checkPC(pc); err != nil {
		return 0, false, err
	}
	b := d.Prog.BlockOf(pc)
	live, mem := d.LiveOut[b], d.MemLiveOut[b]
	for i := d.CFG.Blocks[b].End - 1; i >= pc; i-- {
		e := d.Effects[i]
		live = (live &^ e.Def) | e.Use
		mem = mem || e.Load
	}
	return live, mem, nil
}

// DeadWrite is one statically-dead register write: no path from the
// instruction reads the written value before overwriting it.
type DeadWrite struct {
	PC  int64
	Reg RegSet // the single written cell
}

// DeadWrites scans the reachable blocks for writes that are dead under
// the liveness fixpoint, in ascending PC order. Dead writes are legal —
// jal's link register is often unread, and generators emit them — so
// this is a reporting facility (mlpa analyze -dataflow), not a
// verifier rule.
func (d *Dataflow) DeadWrites() []DeadWrite {
	var out []DeadWrite
	for id, b := range d.CFG.Blocks {
		if !d.CFG.Reachable[id] {
			continue
		}
		live := d.LiveOut[id]
		for pc := b.End - 1; pc >= b.Start; pc-- {
			e := d.Effects[pc]
			if e.Def != 0 && e.Def&live == 0 {
				out = append(out, DeadWrite{PC: pc, Reg: e.Def})
			}
			live = (live &^ e.Def) | e.Use
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}
