package emu

// Superblock traces: the second tier of the predecoded fast path.
//
// The block-batched loop in run.go still pays one dispatch round
// (bounds check, span load, terminator switch, per-block accounting)
// per basic block, which dominates on branchy code where blocks are a
// handful of instructions. A trace stitches the statically-predicted
// path through several blocks — following taken branches, falling
// through not-taken ones, chasing direct jumps, and unrolling loops —
// into one flat, contiguous dinst array that execSpan can run in a
// single call. Conditional branches inside the trace become guard
// pseudo-instructions: a guard lets execution continue while the
// prediction holds and otherwise reports a side exit, from which the
// dispatcher restores exact architectural accounting (instruction
// count, per-block BlockCounts, next PC) for the prefix that actually
// ran. On full completion the trace's precomputed totals are applied
// in O(distinct blocks).
//
// Traces are built eagerly at predecode time from Program.Code alone —
// no runtime profiling, no mutation after construction — so they are
// deterministic and safely shared by every Machine of a program via
// the same Aux cache as the rest of the predecoded form. Correctness
// rests on a strict inclusion rule: a block joins a trace only if its
// whole body is one clean straight-line span (no invalid opcodes, no
// mid-block halt) and its terminator's successor is statically known.
// Halting blocks, indirect jumps (jr), and anything the predecoder
// already hands to the Step fallback stay on the block-batched path,
// as does every run with a Branch hook attached (a trace stitches the
// taken branches the hook must see away, so runFast skips traces
// then). The
// differential suite and FuzzRunVsStep enforce that dispatching
// through traces is bit-identical to Step.

import (
	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// Trace construction limits. Every stitched block appends at least one
// instruction, so the instruction cap bounds construction; the guard
// cap keeps guard indices within the fd byte they are carried in.
const (
	maxTraceInsts  = 512 // flat instructions per trace (caps loop unrolling)
	maxTraceSegs   = 255 // stitched block segments per trace
	maxTraceGuards = 255 // guard index must fit the dinst fd byte
	minTraceSegs   = 2   // single-block traces add dispatch cost, no win
	// traceBudgetFactor bounds the total flattened footprint across all
	// of a program's traces to a small multiple of the code size, so
	// predecode stays O(code) even with aggressive unrolling. The floor
	// keeps tiny programs — whose few block leaders are exactly the hot
	// loop heads — from exhausting the budget before reaching them.
	traceBudgetFactor = 64
	traceBudgetFloor  = 1 << 13
)

// Pseudo-opcodes used only inside trace code. They start above
// isa.NumOps+1 so no dinst built from program code — including the
// deliberately-invalid opcodes fuzzed programs contain — can alias
// them, while keeping execSpan's dispatch switch dense.
const (
	// opGuardXX continues the trace iff the condition holds (it encodes
	// the branch direction the trace predicted) and otherwise side-exits
	// to the architectural PC in imm. The guard's index into
	// strace.guards rides in the fd byte.
	opGuardEQ = isa.Op(isa.NumOps) + 2 + iota
	opGuardNE
	opGuardLT
	opGuardGE
	// opLinkImm is a jal with the control transfer stitched away: it
	// only performs the link-register write (rd = imm, the return PC).
	opLinkImm
)

// traceSeg is one stitched block: the BlockCounts index it is
// accounted to and its instruction count.
type traceSeg struct {
	block int32
	n     uint32
}

// traceGuard is the accounting snapshot for a side exit: exiting at
// this guard means segments [0, seg] committed in full, for insts
// architectural instructions.
type traceGuard struct {
	seg   int32
	insts uint64
}

// traceAcct is the per-distinct-block instruction total applied on
// full completion (ordered by first appearance in the trace).
type traceAcct struct {
	block int32
	n     uint64
}

// strace is one immutable superblock trace rooted at a block leader.
type strace struct {
	code   []dinst
	segs   []traceSeg
	guards []traceGuard
	acct   []traceAcct
	total  uint64 // architectural instructions on full completion
	endPC  int64  // next PC on full completion
}

// buildTraces stitches a trace at every block leader where the
// inclusion rules allow one, in ascending leader order until the
// program-wide flattening budget runs out.
func buildTraces(p *prog.Program, d *predecoded) []*strace {
	blocks := p.BasicBlocks()
	blockAt := make(map[int64]prog.BasicBlock, len(blocks))
	for _, b := range blocks {
		blockAt[b.Start] = b
	}
	blockOf := p.BlockTable()
	traces := make([]*strace, len(p.Code))
	budget := traceBudgetFactor * len(p.Code)
	if budget < traceBudgetFloor {
		budget = traceBudgetFloor
	}
	for _, b := range blocks {
		if budget <= 0 {
			break
		}
		if tr := stitchTrace(p, d, blockAt, blockOf, b.Start); tr != nil {
			traces[b.Start] = tr
			budget -= len(tr.code)
		}
	}
	return traces
}

// stitchTrace grows one trace from head along the statically-predicted
// path (backward conditional branches predicted taken, forward ones
// not taken — the classic BTFNT heuristic), revisiting blocks freely
// so hot loops unroll up to the trace limits. It returns nil when the
// trace would not span at least minTraceSegs blocks.
func stitchTrace(p *prog.Program, d *predecoded, blockAt map[int64]prog.BasicBlock, blockOf []int32, head int64) *strace {
	codeLen := int64(len(p.Code))
	tr := &strace{endPC: head}
	pc := head
	for {
		if pc < 0 || pc >= codeLen {
			// Predicted successor out of range: end the trace here; the
			// dispatcher reproduces Step's out-of-range error exactly.
			break
		}
		b, ok := blockAt[pc]
		if !ok {
			break // not a block leader (defensive: stitch targets are leaders)
		}
		sp := int64(d.span[pc])
		if sp == 0 || pc+sp != b.End {
			// Invalid opcode at the head, or a mid-block halt/invalid
			// cutting the span short: this block belongs to the exact
			// block-batched/Step machinery.
			break
		}
		if tr.total+uint64(sp) > maxTraceInsts ||
			len(tr.segs) >= maxTraceSegs ||
			len(tr.guards) >= maxTraceGuards {
			break
		}
		last := b.End - 1
		term := p.Code[last].Op
		if term == isa.OpHalt || term == isa.OpJr {
			// Halting and indirect-jump blocks stay on the block path:
			// their successor is unknown or stops the machine.
			break
		}
		var next int64
		switch {
		case term.IsCondBranch():
			targ := d.code[last].imm
			taken := targ <= last
			cont, exit := last+1, targ
			if taken {
				cont, exit = targ, last+1
			}
			tr.code = append(tr.code, d.code[pc:last]...)
			tr.code = append(tr.code, dinst{
				op:  uint8(guardOp(term, taken)),
				rs1: d.code[last].rs1,
				rs2: d.code[last].rs2,
				fd:  uint8(len(tr.guards)),
				imm: exit,
			})
			tr.guards = append(tr.guards, traceGuard{
				seg:   int32(len(tr.segs)),
				insts: tr.total + uint64(sp),
			})
			next = cont
		case term == isa.OpJmp:
			// The jump disappears entirely: its only effect is the PC
			// redirect the stitching already encodes. It still counts —
			// the segment length below is the architectural sp.
			tr.code = append(tr.code, d.code[pc:last]...)
			next = d.code[last].imm
		case term == isa.OpJal:
			tr.code = append(tr.code, d.code[pc:last]...)
			tr.code = append(tr.code, dinst{
				op:  uint8(opLinkImm),
				rd:  d.code[last].rd,
				imm: last + 1,
			})
			next = d.code[last].imm
		default:
			// Fall-through block: every instruction including the final
			// one is plain.
			tr.code = append(tr.code, d.code[pc:b.End]...)
			next = b.End
		}
		tr.segs = append(tr.segs, traceSeg{block: blockOf[pc], n: uint32(sp)})
		tr.total += uint64(sp)
		tr.endPC = next
		pc = next
	}
	if len(tr.segs) < minTraceSegs {
		return nil
	}
	idx := make(map[int32]int, 4)
	for _, s := range tr.segs {
		if j, ok := idx[s.block]; ok {
			tr.acct[j].n += uint64(s.n)
		} else {
			idx[s.block] = len(tr.acct)
			tr.acct = append(tr.acct, traceAcct{block: s.block, n: uint64(s.n)})
		}
	}
	return tr
}

// guardOp maps a conditional branch and its predicted direction to the
// guard that continues the trace while the prediction holds.
func guardOp(op isa.Op, taken bool) isa.Op {
	switch op {
	case isa.OpBeq:
		if taken {
			return opGuardEQ
		}
		return opGuardNE
	case isa.OpBne:
		if taken {
			return opGuardNE
		}
		return opGuardEQ
	case isa.OpBlt:
		if taken {
			return opGuardLT
		}
		return opGuardGE
	default: // isa.OpBge
		if taken {
			return opGuardGE
		}
		return opGuardLT
	}
}
