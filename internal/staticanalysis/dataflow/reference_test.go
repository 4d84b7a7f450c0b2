package dataflow

import (
	"math/rand"
	"testing"

	"mlpa/internal/isa"
)

// Frozen copies of the per-file reads and writes, and of the
// per-opcode switch over them that EffectOf replaced when the opcode
// table took over naming each operand's register file.

func intUse(r isa.Reg) RegSet {
	return (1 << (uint(r) & 31)) &^ 1
}

func fpUse(r isa.Reg) RegSet {
	return 1 << (32 | (uint(r) & 31))
}

func intDef(r isa.Reg) RegSet {
	if r == isa.RZero || r.IsFP() {
		return 0
	}
	return 1 << (uint(r) & 31)
}

func fpDef(r isa.Reg) RegSet {
	if !r.IsFP() {
		return 0
	}
	return 1 << (32 | (uint(r) & 31))
}

func refEffectOf(in isa.Inst) Effect {
	switch in.Op {
	case isa.OpNop, isa.OpHalt, isa.OpJmp:
		return Effect{}
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSlt:
		return Effect{Use: intUse(in.Rs1) | intUse(in.Rs2), Def: intDef(in.Rd)}
	case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpShli, isa.OpShri, isa.OpSlti:
		return Effect{Use: intUse(in.Rs1), Def: intDef(in.Rd)}
	case isa.OpLui:
		return Effect{Def: intDef(in.Rd)}
	case isa.OpLd:
		return Effect{Use: intUse(in.Rs1), Def: intDef(in.Rd), Load: true}
	case isa.OpSt:
		return Effect{Use: intUse(in.Rs1) | intUse(in.Rs2), Store: true}
	case isa.OpFld:
		return Effect{Use: intUse(in.Rs1), Def: fpDef(in.Rd), Load: true}
	case isa.OpFst:
		return Effect{Use: intUse(in.Rs1) | fpUse(in.Rs2), Store: true}
	case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv:
		return Effect{Use: fpUse(in.Rs1) | fpUse(in.Rs2), Def: fpDef(in.Rd)}
	case isa.OpFneg, isa.OpFmov:
		return Effect{Use: fpUse(in.Rs1), Def: fpDef(in.Rd)}
	case isa.OpCvtIF:
		return Effect{Use: intUse(in.Rs1), Def: fpDef(in.Rd)}
	case isa.OpCvtFI:
		return Effect{Use: fpUse(in.Rs1), Def: intDef(in.Rd)}
	case isa.OpFcmpLt, isa.OpFcmpEq:
		return Effect{Use: fpUse(in.Rs1) | fpUse(in.Rs2), Def: intDef(in.Rd)}
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		return Effect{Use: intUse(in.Rs1) | intUse(in.Rs2)}
	case isa.OpJal:
		return Effect{Def: intDef(in.Rd)}
	case isa.OpJr:
		return Effect{Use: intUse(in.Rs1)}
	default:
		return Effect{Use: AllRegs, Load: true}
	}
}

// TestEffectOfMatchesReference compares EffectOf with the frozen switch
// on all 256 opcode values, with register fields drawn from the whole
// uint8 range (r0, both files and names past f31 included).
func TestEffectOfMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	reg := func() isa.Reg {
		if rng.Intn(4) == 0 {
			return []isa.Reg{isa.RZero, isa.FPBase, isa.FPBase - 1, isa.F(31)}[rng.Intn(4)]
		}
		return isa.Reg(rng.Intn(256))
	}
	for v := 0; v < 256; v++ {
		for i := 0; i < 3000; i++ {
			in := isa.Inst{Op: isa.Op(v), Rd: reg(), Rs1: reg(), Rs2: reg(),
				Imm: rng.Int63() - rng.Int63(), Targ: rng.Int63() - rng.Int63()}
			if got, want := EffectOf(in), refEffectOf(in); got != want {
				t.Fatalf("%v: EffectOf = %+v, reference %+v", in, got, want)
			}
		}
	}
}
