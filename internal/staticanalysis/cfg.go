// Package staticanalysis provides static analysis of guest programs:
// a verifier that rejects malformed programs before any emulation, a
// control-flow graph over basic blocks, a dominator tree, and a
// natural-loop forest that mirrors — without executing a single
// instruction — the cyclic structures the dynamic LoopProfiler
// discovers from retired branches. COASTS cross-checks the two views
// so a disagreement between static structure and dynamic boundary
// profiling is surfaced instead of silently mis-sampling.
//
// The package analyzes mini-ISA guest programs (prog.Program), not Go
// source; it deliberately uses none of go/ast.
package staticanalysis

import (
	"fmt"
	"sort"
	"strings"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// CFG is the control-flow graph of a program: one node per basic
// block, with guarded edge construction that tolerates out-of-range
// branch targets (such edges are dropped; the verifier reports them).
type CFG struct {
	Prog   *prog.Program
	Blocks []prog.BasicBlock
	Succs  [][]int
	Preds  [][]int

	// Entry is the block containing instruction 0.
	Entry int

	// Reachable[b] reports whether block b is reachable from Entry.
	Reachable []bool
}

// BuildCFG constructs the control-flow graph. It never panics on
// malformed branch targets, and it models jal/jr call linkage: a jal
// edge goes to the callee, and each jr through register r gains return
// edges to the instruction after every jal that links through r.
func BuildCFG(p *prog.Program) *CFG {
	blocks := p.BasicBlocks()
	n := int64(len(p.Code))
	g := &CFG{
		Prog:   p,
		Blocks: blocks,
		Succs:  make([][]int, len(blocks)),
		Preds:  make([][]int, len(blocks)),
	}

	// Return points of jal instructions, per link register.
	returnsOf := make(map[isa.Reg][]int64)
	for i, in := range p.Code {
		if in.Op == isa.OpJal && int64(i)+1 < n {
			returnsOf[in.Rd] = append(returnsOf[in.Rd], int64(i)+1)
		}
	}

	blockAt := func(pc int64) (int, bool) {
		if pc < 0 || pc >= n {
			return 0, false
		}
		return p.BlockOf(pc), true
	}

	for id, b := range blocks {
		last := p.Code[b.End-1]
		add := func(pc int64) {
			if s, ok := blockAt(pc); ok {
				g.Succs[id] = append(g.Succs[id], s)
			}
		}
		switch {
		case last.Op == isa.OpHalt:
			// terminal
		case last.Op == isa.OpJmp || last.Op == isa.OpJal:
			add(last.Targ)
		case last.Op == isa.OpJr:
			for _, ret := range returnsOf[last.Rs1] {
				add(ret)
			}
		case last.Op.IsCondBranch():
			add(last.Targ)
			add(b.End)
		default:
			add(b.End)
		}
		g.Succs[id] = dedupInts(g.Succs[id])
	}
	for id, succs := range g.Succs {
		for _, s := range succs {
			g.Preds[s] = append(g.Preds[s], id)
		}
	}

	g.Entry = p.BlockOf(0)
	g.Reachable = make([]bool, len(blocks))
	work := []int{g.Entry}
	g.Reachable[g.Entry] = true
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Succs[id] {
			if !g.Reachable[s] {
				g.Reachable[s] = true
				work = append(work, s)
			}
		}
	}
	return g
}

// NumBlocks returns the number of basic blocks.
func (g *CFG) NumBlocks() int { return len(g.Blocks) }

// Terminator returns the last instruction of block id.
func (g *CFG) Terminator(id int) isa.Inst {
	return g.Prog.Code[g.Blocks[id].End-1]
}

// String renders the graph block-by-block for the analyze CLI.
func (g *CFG) String() string {
	var sb strings.Builder
	labels := labelIndex(g.Prog)
	for id, b := range g.Blocks {
		mark := " "
		if !g.Reachable[id] {
			mark = "x"
		}
		fmt.Fprintf(&sb, "%s B%-3d [%4d,%4d)", mark, id, b.Start, b.End)
		if l := labels.at(b.Start); l != "" {
			fmt.Fprintf(&sb, " %-20s", l)
		} else {
			fmt.Fprintf(&sb, " %-20s", "")
		}
		fmt.Fprintf(&sb, " -> %v   ; %s\n", g.Succs[id], g.Terminator(id))
	}
	return sb.String()
}

// RPO returns a reverse postorder of the reachable blocks, starting at
// the entry block.
func (g *CFG) RPO() []int {
	seen := make([]bool, len(g.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(id int) {
		seen[id] = true
		for _, s := range g.Succs[id] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, id)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

func dedupInts(s []int) []int {
	if len(s) < 2 {
		return s
	}
	sort.Ints(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// labelIdx resolves instruction indices to label context.
type labelIdx struct {
	idx   []int64
	names []string
}

func labelIndex(p *prog.Program) *labelIdx {
	type ent struct {
		idx  int64
		name string
	}
	ents := make([]ent, 0, len(p.Labels))
	for name, idx := range p.Labels {
		ents = append(ents, ent{idx, name})
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].idx != ents[j].idx {
			return ents[i].idx < ents[j].idx
		}
		return ents[i].name < ents[j].name
	})
	li := &labelIdx{}
	for _, e := range ents {
		li.idx = append(li.idx, e.idx)
		li.names = append(li.names, e.name)
	}
	return li
}

// at returns the label bound exactly at pc, or "".
func (li *labelIdx) at(pc int64) string {
	i := sort.Search(len(li.idx), func(i int) bool { return li.idx[i] >= pc })
	if i < len(li.idx) && li.idx[i] == pc {
		return li.names[i]
	}
	return ""
}

// nearest returns the closest label at or before pc rendered as
// "name+offset", or "" when no label precedes pc.
func (li *labelIdx) nearest(pc int64) string {
	i := sort.Search(len(li.idx), func(i int) bool { return li.idx[i] > pc })
	if i == 0 {
		return ""
	}
	i--
	if off := pc - li.idx[i]; off > 0 {
		return fmt.Sprintf("%s+%d", li.names[i], off)
	}
	return li.names[i]
}
