package emu

// Structural invariants of the superblock traces built at predecode
// time. The differential suite (fastpath_test.go, fuzz_test.go) proves
// dispatching through traces is bit-identical to Step; these tests pin
// the construction-side contracts that proof relies on: traces root
// only at block leaders, their accounting tables are internally
// consistent, no raw control-flow opcode survives inside trace code,
// and every guard's index round-trips through the fd byte it rides in.

import (
	"fmt"
	"math/rand"
	"testing"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// checkTraceInvariants validates every trace of p and returns how many
// traces the program has.
func checkTraceInvariants(t *testing.T, p *prog.Program) int {
	t.Helper()
	d := predecode(p)
	leaders := make(map[int64]bool)
	for _, b := range p.BasicBlocks() {
		leaders[b.Start] = true
	}
	count := 0
	for pc, tr := range d.traces {
		if tr == nil {
			continue
		}
		count++
		label := fmt.Sprintf("%s: trace@%d", p.Name, pc)
		if !leaders[int64(pc)] {
			t.Errorf("%s: rooted at a non-leader PC", label)
		}
		if len(tr.segs) < minTraceSegs {
			t.Errorf("%s: only %d segments (min %d)", label, len(tr.segs), minTraceSegs)
		}
		if tr.total > maxTraceInsts {
			t.Errorf("%s: %d architectural instructions exceeds cap %d", label, tr.total, maxTraceInsts)
		}
		if len(tr.guards) > maxTraceGuards {
			t.Errorf("%s: %d guards exceeds cap %d", label, len(tr.guards), maxTraceGuards)
		}
		var segSum, acctSum uint64
		for _, s := range tr.segs {
			segSum += uint64(s.n)
		}
		for _, a := range tr.acct {
			acctSum += a.n
		}
		if segSum != tr.total || acctSum != tr.total {
			t.Errorf("%s: accounting mismatch: segs %d, acct %d, total %d", label, segSum, acctSum, tr.total)
		}
		prevInsts := uint64(0)
		for gi, g := range tr.guards {
			if g.seg < 0 || int(g.seg) >= len(tr.segs) {
				t.Errorf("%s: guard %d references segment %d of %d", label, gi, g.seg, len(tr.segs))
			}
			if g.insts <= prevInsts || g.insts > tr.total {
				t.Errorf("%s: guard %d accounts %d instructions (prev %d, total %d)",
					label, gi, g.insts, prevInsts, tr.total)
			}
			prevInsts = g.insts
		}
		// Walk the flat code: guards must carry sequential indices in
		// their fd byte, and no raw control-transfer or halt opcode may
		// survive stitching — those either became pseudo-ops or ended
		// the trace.
		gi := 0
		for i, di := range tr.code {
			op := isa.Op(di.op)
			switch {
			case op >= opGuardEQ && op <= opGuardGE:
				if int(di.fd) != gi {
					t.Errorf("%s: code[%d] guard index %d, want %d", label, i, di.fd, gi)
				}
				gi++
			case op == opLinkImm:
				// Link writes are plain register writes; nothing to check
				// beyond not being a raw jal below.
			case !op.Valid():
				t.Errorf("%s: code[%d] carries invalid opcode %d", label, i, di.op)
			case op.IsCondBranch() || op == isa.OpJmp || op == isa.OpJal || op == isa.OpJr || op == isa.OpHalt:
				t.Errorf("%s: code[%d] carries raw control opcode %v", label, i, op)
			}
		}
		if gi != len(tr.guards) {
			t.Errorf("%s: %d guard instructions in code, %d guard records", label, gi, len(tr.guards))
		}
	}
	return count
}

// TestTraceInvariantsExamples checks every builder example. The loopy
// examples must actually produce traces — an empty trace table would
// silently disable the superblock tier.
func TestTraceInvariantsExamples(t *testing.T) {
	total := 0
	for _, p := range prog.Examples() {
		total += checkTraceInvariants(t, p)
	}
	if total == 0 {
		t.Error("no example program produced any trace")
	}
}

// TestTraceInvariantsFuzzPrograms runs the same checks over
// byte-derived adversarial programs (invalid opcodes, wild targets),
// where most blocks must be rejected rather than mis-stitched.
func TestTraceInvariantsFuzzPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 8*(rng.Intn(64)+2))
		rng.Read(data)
		p := fuzzProgram(data)
		if p == nil {
			continue
		}
		p.Name = fmt.Sprintf("fuzz-trial%d", trial)
		checkTraceInvariants(t, p)
	}
}
