package emu

// Differential validation of the static dataflow model against the
// emulator's predecoded form. The dataflow package claims EffectOf
// mirrors the machine's register semantics exactly; the predecoder
// independently resolves every operand to a register-file slot (with
// the zero and sink rules folded in). CrossCheckDataflow re-derives
// each instruction's def/use sets from those slots — using a
// per-opcode table of which slots run.go's execution loops actually
// touch — and demands equality, so a drift in either model surfaces as
// a concrete per-PC mismatch instead of a silent unsoundness in
// checkpoint live-in sets.

import (
	"fmt"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
	"mlpa/internal/staticanalysis/dataflow"
)

// slotIntUse converts an integer-file read slot to a register cell.
// Slot intZero is the hard-wired zero, and slot 0 (an FP-named operand
// folding onto the never-written IntRegs[0]) reads a constant — neither
// is a use.
func slotIntUse(s uint8) dataflow.RegSet {
	if s >= intZero || s == 0 {
		return 0
	}
	return dataflow.RegSet(1) << s
}

// slotIntDef converts an integer-file write slot to a register cell;
// intSink absorbs discarded writes.
func slotIntDef(s uint8) dataflow.RegSet {
	if s >= intZero {
		return 0
	}
	return dataflow.RegSet(1) << s
}

// slotFPUse converts an FP-file read slot to a register cell; every FP
// cell is writable, so every read is a use.
func slotFPUse(s uint8) dataflow.RegSet {
	return dataflow.RegSet(1) << (32 + uint(s&31))
}

// slotFPDef converts an FP-file write slot to a register cell.
func slotFPDef(s uint8) dataflow.RegSet {
	if s >= fpSink {
		return 0
	}
	return dataflow.RegSet(1) << (32 + uint(s))
}

// slotEffect derives an instruction's effect purely from its predecoded
// slots, using a table of which slots the fast loops (execSpan and the
// terminator handling in run.go) read and write per opcode. ok is false
// for opcodes outside the table (invalid encodings, which the fast path
// defers to Step).
func slotEffect(d dinst) (eff dataflow.Effect, ok bool) {
	switch isa.Op(d.op) {
	case isa.OpNop, isa.OpHalt, isa.OpJmp:
		return dataflow.Effect{}, true
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSlt:
		return dataflow.Effect{Use: slotIntUse(d.rs1) | slotIntUse(d.rs2), Def: slotIntDef(d.rd)}, true
	case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpShli, isa.OpShri, isa.OpSlti:
		return dataflow.Effect{Use: slotIntUse(d.rs1), Def: slotIntDef(d.rd)}, true
	case isa.OpLui:
		return dataflow.Effect{Def: slotIntDef(d.rd)}, true
	case isa.OpLd:
		return dataflow.Effect{Use: slotIntUse(d.rs1), Def: slotIntDef(d.rd), Load: true}, true
	case isa.OpSt:
		return dataflow.Effect{Use: slotIntUse(d.rs1) | slotIntUse(d.rs2), Store: true}, true
	case isa.OpFld:
		return dataflow.Effect{Use: slotIntUse(d.rs1), Def: slotFPDef(d.fd), Load: true}, true
	case isa.OpFst:
		return dataflow.Effect{Use: slotIntUse(d.rs1) | slotFPUse(d.fs2), Store: true}, true
	case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv:
		return dataflow.Effect{Use: slotFPUse(d.fs1) | slotFPUse(d.fs2), Def: slotFPDef(d.fd)}, true
	case isa.OpFneg, isa.OpFmov:
		return dataflow.Effect{Use: slotFPUse(d.fs1), Def: slotFPDef(d.fd)}, true
	case isa.OpCvtIF:
		return dataflow.Effect{Use: slotIntUse(d.rs1), Def: slotFPDef(d.fd)}, true
	case isa.OpCvtFI:
		return dataflow.Effect{Use: slotFPUse(d.fs1), Def: slotIntDef(d.rd)}, true
	case isa.OpFcmpLt, isa.OpFcmpEq:
		return dataflow.Effect{Use: slotFPUse(d.fs1) | slotFPUse(d.fs2), Def: slotIntDef(d.rd)}, true
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		return dataflow.Effect{Use: slotIntUse(d.rs1) | slotIntUse(d.rs2)}, true
	case isa.OpJal:
		return dataflow.Effect{Def: slotIntDef(d.rd)}, true
	case isa.OpJr:
		return dataflow.Effect{Use: slotIntUse(d.rs1)}, true
	default:
		return dataflow.Effect{}, false
	}
}

// CrossCheckDataflow verifies, for every instruction of p, that the
// static dataflow model (dataflow.EffectOf) agrees with the emulator's
// predecoded register slots: identical use/def sets and memory flags,
// and — for instructions whose syntactic destination is discarded by
// the machine — that the predecoder routed the write to a sink slot.
// It returns the first disagreement as an error, or nil if the two
// models agree on the whole program.
func CrossCheckDataflow(p *prog.Program) error {
	dec := predecode(p)
	for pc, in := range p.Code {
		if dec.span[pc] == 0 {
			// Invalid opcode: the fast path defers to Step, which
			// refuses to execute it, so there is nothing to cross-check.
			continue
		}
		d := dec.code[pc]
		got, ok := slotEffect(d)
		if !ok {
			return fmt.Errorf("emu: %s pc %d: opcode %v has a batch span but no slot-effect entry",
				p.Name, pc, in.Op)
		}
		want := dataflow.EffectOf(in)
		if got != want {
			return fmt.Errorf("emu: %s pc %d (%v): predecoded slots imply effect %+v, static model says %+v",
				p.Name, pc, in, got, want)
		}
		// Dead-destination agreement: a destination whose write the
		// static model discards must be routed to the sink slot of the
		// file the opcode writes through, and an effective static def
		// requires a syntactic destination.
		if rd, hasDest := in.Dests(); hasDest && want.Def == 0 {
			var sunk bool
			switch in.Op.FileOf(isa.FieldRd) {
			case isa.IntFile:
				sunk = d.rd == intSink
			case isa.FPFile:
				sunk = d.fd == fpSink
			}
			if !sunk {
				return fmt.Errorf("emu: %s pc %d (%v): destination %v is statically dead but predecodes to live slots rd=%d fd=%d",
					p.Name, pc, in, rd, d.rd, d.fd)
			}
		}
		if want.Def != 0 {
			if _, hasDest := in.Dests(); !hasDest {
				return fmt.Errorf("emu: %s pc %d (%v): static model defines %v but isa.Dests reports no destination",
					p.Name, pc, in, want.Def)
			}
		}
	}
	return nil
}
