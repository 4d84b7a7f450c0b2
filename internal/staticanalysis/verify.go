package staticanalysis

import (
	"fmt"
	"strings"
	"sync"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// Rule identifies one verifier check.
type Rule string

// Verifier rules. Each names a distinct class of malformed control or
// data flow that would otherwise only surface (if at all) millions of
// instructions into an emulation run.
const (
	// RuleBadTarget: a direct branch/jump target outside [0, len(code)).
	RuleBadTarget Rule = "bad-target"
	// RuleMissingHalt: no halt instruction is reachable from entry.
	RuleMissingHalt Rule = "missing-halt"
	// RuleFallthroughEnd: a reachable block can fall through past the
	// last instruction of the program.
	RuleFallthroughEnd Rule = "fallthrough-end"
	// RuleUnreachable: a basic block no path from entry reaches.
	RuleUnreachable Rule = "unreachable-block"
	// RuleUninitRead: an instruction reads a register no instruction
	// in the program ever writes (always the architectural zero).
	RuleUninitRead Rule = "uninitialized-read"
	// RuleJrLinkage: a jr through a register no jal ever links, so its
	// target can never be a return address.
	RuleJrLinkage Rule = "broken-jr-linkage"
	// RuleInvalidOpcode: an undefined opcode in the code stream.
	RuleInvalidOpcode Rule = "invalid-opcode"
)

// Diag is one structured verifier finding.
type Diag struct {
	Rule Rule
	// PC is the offending instruction index (-1 for program-wide
	// findings such as a missing halt).
	PC int64
	// Inst is the disassembly of the offending instruction.
	Inst string
	// Label is the nearest label at or before PC ("name" or
	// "name+offset"), for human-readable context.
	Label string
	// Msg explains the finding.
	Msg string
}

func (d Diag) String() string {
	loc := "program"
	if d.PC >= 0 {
		loc = fmt.Sprintf("pc %d", d.PC)
		if d.Label != "" {
			loc += " (" + d.Label + ")"
		}
		if d.Inst != "" {
			loc += ": " + d.Inst
		}
	}
	return fmt.Sprintf("%s: %s: %s", d.Rule, loc, d.Msg)
}

// Report is the outcome of verifying one program.
type Report struct {
	Prog  string
	Diags []Diag
}

// OK reports whether the program passed every check.
func (r *Report) OK() bool { return len(r.Diags) == 0 }

// Err returns nil for a clean report, or an error summarizing every
// diagnostic.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "verify %q: %d finding(s)", r.Prog, len(r.Diags))
	for _, d := range r.Diags {
		sb.WriteString("\n  ")
		sb.WriteString(d.String())
	}
	return fmt.Errorf("%s", sb.String())
}

// String renders the report for the analyze CLI.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("verify %q: ok\n", r.Prog)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "verify %q: %d finding(s)\n", r.Prog, len(r.Diags))
	for _, d := range r.Diags {
		fmt.Fprintf(&sb, "  %s\n", d)
	}
	return sb.String()
}

// add appends a diagnostic anchored at pc with label context.
func (r *Report) add(p *prog.Program, labels *labelIdx, rule Rule, pc int64, format string, args ...any) {
	d := Diag{Rule: rule, PC: pc, Msg: fmt.Sprintf(format, args...)}
	if pc >= 0 && pc < int64(len(p.Code)) {
		d.Inst = p.Code[pc].String()
		d.Label = labels.nearest(pc)
	}
	r.Diags = append(r.Diags, d)
}

// Verify statically checks p and returns a structured report. An empty
// program yields a single program-wide diagnostic.
func Verify(p *prog.Program) *Report {
	r := &Report{Prog: p.Name}
	labels := labelIndex(p)
	n := int64(len(p.Code))
	if n == 0 {
		r.add(p, labels, RuleMissingHalt, -1, "empty program")
		return r
	}

	// Instruction-local checks: opcode validity and direct-target
	// ranges. These must come first — the CFG drops bad edges, so the
	// structural checks below stay meaningful on malformed input.
	for i, in := range p.Code {
		pc := int64(i)
		if !in.Op.Valid() {
			r.add(p, labels, RuleInvalidOpcode, pc, "undefined opcode %d", uint8(in.Op))
			continue
		}
		if in.Op.HasTarget() && (in.Targ < 0 || in.Targ >= n) {
			r.add(p, labels, RuleBadTarget, pc, "target %d outside code [0,%d)", in.Targ, n)
		}
	}

	g := BuildCFG(p)

	// Reachability: a halt must be reachable, no reachable block may
	// fall off the end of code, and every block must be reachable.
	haltReachable := false
	for id, b := range g.Blocks {
		if !g.Reachable[id] {
			r.add(p, labels, RuleUnreachable, b.Start,
				"block B%d [%d,%d) is unreachable from entry", id, b.Start, b.End)
			continue
		}
		last := g.Terminator(id)
		for pc := b.Start; pc < b.End; pc++ {
			if p.Code[pc].Op == isa.OpHalt {
				haltReachable = true
			}
		}
		fallsThrough := last.Op != isa.OpHalt && last.Op != isa.OpJmp &&
			last.Op != isa.OpJal && last.Op != isa.OpJr
		if b.End == n && fallsThrough {
			r.add(p, labels, RuleFallthroughEnd, b.End-1,
				"execution can fall through past the last instruction; add halt or an unconditional transfer")
		}
	}
	if !haltReachable {
		r.add(p, labels, RuleMissingHalt, -1, "no halt instruction is reachable from entry")
	}

	// Whole-program register def/use: reads of registers that no
	// instruction writes. The machine zero-fills registers, so such a
	// read is a constant zero — in every observed case a guest-program
	// bug (a counter that was never initialized), so it is rejected.
	var written [int(isa.FPBase) + isa.NumFPRegs]bool
	jalLinks := map[isa.Reg]bool{}
	for _, in := range p.Code {
		if rd, ok := in.Dests(); ok {
			written[rd] = true
		}
		if in.Op == isa.OpJal {
			jalLinks[in.Rd] = true
		}
	}
	var srcs []isa.Reg
	seenUninit := map[isa.Reg]bool{}
	for i := range p.Code {
		in := &p.Code[i]
		srcs = in.Sources(srcs[:0])
		for _, s := range srcs {
			if !written[s] && !seenUninit[s] {
				seenUninit[s] = true
				r.add(p, labels, RuleUninitRead, int64(i),
					"reads %s, which no instruction writes (always zero)", s)
			}
		}
		if in.Op == isa.OpJr && !jalLinks[in.Rs1] {
			r.add(p, labels, RuleJrLinkage, int64(i),
				"jr through %s, but no jal links a return address into %s", in.Rs1, in.Rs1)
		}
	}
	return r
}

// preflightCache memoizes Preflight outcomes per *prog.Program, so the
// pipeline can verify unconditionally without re-walking the code on
// every point execution.
var preflightCache sync.Map // *prog.Program -> error (nil stored as untyped nil)

// Preflight verifies p once and caches the verdict for the lifetime of
// the Program value. It is what execution entry points call before
// spending emulation time on a possibly malformed guest.
func Preflight(p *prog.Program) error {
	if v, ok := preflightCache.Load(p); ok {
		if v == nil {
			return nil
		}
		return v.(error)
	}
	err := Verify(p).Err()
	if err == nil {
		preflightCache.Store(p, nil)
	} else {
		preflightCache.Store(p, err)
	}
	return err
}
