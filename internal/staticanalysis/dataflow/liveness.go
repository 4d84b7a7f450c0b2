package dataflow

import "sort"

// solveLiveness runs the backward liveness fixpoint over the CFG with
// a worklist. Facts flow against CFG edges: a block's live-out is the
// union of its successors' live-ins, and its live-in is
// Gen ∪ (live-out ∖ Kill). Memory rides alongside as one may-read bit
// with uses (loads) but no kill — the abstraction treats data memory
// as a single cell stores cannot fully overwrite. Blocks with no
// successors (halt blocks and jr blocks with no matching jal) have an
// empty live-out: nothing is live out of the program. Jal/jr call
// linkage is part of the CFG as a path superset of real executions,
// which keeps the may-analysis sound.
//
// Blocks are seeded in reverse of reverse postorder, which makes
// acyclic regions converge in one pass; unreachable blocks are seeded
// first so every block receives a solution. The worklist is a
// deterministic FIFO, so the solution — already unique as the least
// fixpoint — is also reproduced by an identical visit sequence on every
// run.
func (d *Dataflow) solveLiveness() {
	g := d.CFG
	n := g.NumBlocks()
	d.LiveIn = make([]RegSet, n)
	d.LiveOut = make([]RegSet, n)
	d.MemLiveIn = make([]bool, n)
	d.MemLiveOut = make([]bool, n)

	queue := make([]int, 0, n)
	queued := make([]bool, n)
	rpo := g.RPO()
	for _, b := range rpo {
		queued[b] = true
	}
	for b := n - 1; b >= 0; b-- {
		if !queued[b] { // unreachable: absent from the RPO
			queued[b] = true
			queue = append(queue, b)
		}
	}
	for i := len(rpo) - 1; i >= 0; i-- {
		queue = append(queue, rpo[i])
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false
		var out RegSet
		mem := false
		for _, s := range g.Succs[b] {
			out |= d.LiveIn[s]
			mem = mem || d.MemLiveIn[s]
		}
		d.LiveOut[b], d.MemLiveOut[b] = out, mem
		in, memIn := d.Gen[b]|(out&^d.Kill[b]), d.Loads[b] || mem
		if in == d.LiveIn[b] && memIn == d.MemLiveIn[b] {
			continue
		}
		d.LiveIn[b], d.MemLiveIn[b] = in, memIn
		for _, p := range g.Preds[b] {
			if !queued[p] {
				queued[p] = true
				queue = append(queue, p)
			}
		}
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
