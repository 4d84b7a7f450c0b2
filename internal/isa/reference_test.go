package isa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Frozen copies of the per-opcode switches the opcode table replaced.
// The derived methods must agree with them on every opcode value,
// defined or not, whatever the instruction's other fields hold.

func refDests(in *Inst) (Reg, bool) {
	switch in.Op {
	case OpNop, OpHalt, OpSt, OpFst, OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpJr:
		return 0, false
	}
	if in.Rd == RZero {
		return 0, false
	}
	return in.Rd, true
}

func refSources(in *Inst, dst []Reg) []Reg {
	add := func(r Reg) {
		if r != RZero {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case OpNop, OpHalt, OpJmp, OpJal, OpLui:
		// no register sources
	case OpAddi, OpAndi, OpOri, OpXori, OpShli, OpShri, OpSlti, OpLd, OpFld, OpJr:
		add(in.Rs1)
	case OpSt, OpFst:
		add(in.Rs1)
		add(in.Rs2)
	case OpFneg, OpFmov, OpCvtIF, OpCvtFI:
		add(in.Rs1)
	default:
		add(in.Rs1)
		add(in.Rs2)
	}
	return dst
}

func refString(in Inst) string {
	switch in.Op {
	case OpNop, OpHalt:
		return in.Op.String()
	case OpJmp:
		return fmt.Sprintf("jmp %d", in.Targ)
	case OpJal:
		return fmt.Sprintf("jal %s, %d", in.Rd, in.Targ)
	case OpJr:
		return fmt.Sprintf("jr %s", in.Rs1)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rs1, in.Rs2, in.Targ)
	case OpLd, OpFld:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
	case OpSt, OpFst:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case OpAddi, OpAndi, OpOri, OpXori, OpShli, OpShri, OpSlti:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpLui:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case OpFneg, OpFmov, OpCvtIF, OpCvtFI:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs1)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

func refLatency(o Op) int {
	switch o.Class() {
	case ClassIntALU:
		return 1
	case ClassIntMul:
		if o == OpMul {
			return 3
		}
		return 12 // div/rem
	case ClassLoad, ClassStore:
		return 1 // address generation; cache latency added separately
	case ClassFPAdd:
		return 2
	case ClassFPMul:
		if o == OpFmul {
			return 4
		}
		return 12 // fdiv
	case ClassBranch:
		return 1
	}
	return 1
}

func refIsCondBranch(o Op) bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// randomInst fills every field but the opcode from rng: registers over
// the whole uint8 range (names past f31 included) with r0 and the file
// boundaries drawn often, and immediates and targets of every sign and
// magnitude.
func randomInst(rng *rand.Rand, op Op) Inst {
	reg := func() Reg {
		switch rng.Intn(4) {
		case 0:
			return Reg(rng.Intn(256))
		case 1:
			return []Reg{RZero, FPBase, FPBase - 1, F(31), RRA}[rng.Intn(5)]
		default:
			return Reg(rng.Intn(64))
		}
	}
	num := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return rng.Int63() - rng.Int63()
		case 1:
			return int64(rng.Intn(2001) - 1000)
		default:
			return []int64{0, -1, 1 << 62, -1 << 63}[rng.Intn(4)]
		}
	}
	return Inst{Op: op, Rd: reg(), Rs1: reg(), Rs2: reg(), Imm: num(), Targ: num()}
}

// TestDerivedMatchesReference compares every fact the opcode table
// derives with the frozen switches, on all 256 opcode values.
func TestDerivedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for v := 0; v < 256; v++ {
		op := Op(v)
		if got, want := op.Latency(), refLatency(op); got != want {
			t.Errorf("%v.Latency() = %d, reference %d", op, got, want)
		}
		if got, want := op.IsCondBranch(), refIsCondBranch(op); got != want {
			t.Errorf("%v.IsCondBranch() = %v, reference %v", op, got, want)
		}
		if got, want := op.HasTarget(), op.IsBranch() && op != OpJr; got != want {
			t.Errorf("%v.HasTarget() = %v, want IsBranch() && op != jr = %v", op, got, want)
		}
		for i := 0; i < 3000; i++ {
			in := randomInst(rng, op)
			if got, want := in.String(), refString(in); got != want {
				t.Fatalf("%+v String() = %q, reference %q", in, got, want)
			}
			rd, ok := in.Dests()
			wrd, wok := refDests(&in)
			if rd != wrd || ok != wok {
				t.Fatalf("%v Dests() = %v, %v; reference %v, %v", in, rd, ok, wrd, wok)
			}
			if got, want := in.Sources(nil), refSources(&in, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v Sources() = %v, reference %v", in, got, want)
			}
		}
	}
}
