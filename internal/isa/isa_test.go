package isa

import "testing"

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{0, "r0"},
		{5, "r5"},
		{31, "r31"},
		{F(0), "f0"},
		{F(31), "f31"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestFIsFP(t *testing.T) {
	for i := 0; i < NumFPRegs; i++ {
		if !F(i).IsFP() {
			t.Errorf("F(%d).IsFP() = false", i)
		}
	}
	for i := 0; i < NumIntRegs; i++ {
		if Reg(i).IsFP() {
			t.Errorf("Reg(%d).IsFP() = true", i)
		}
	}
}

func TestOpClassCoverage(t *testing.T) {
	// Every defined opcode must have a name and a class.
	for o := Op(0); int(o) < NumOps; o++ {
		if o.String() == "" {
			t.Errorf("op %d has empty mnemonic", o)
		}
		if o != OpNop && o != OpHalt && o.Class() == ClassNop {
			t.Errorf("op %s has ClassNop", o)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpBeq.IsBranch() || !OpBeq.IsCondBranch() {
		t.Error("beq should be a conditional branch")
	}
	if !OpJmp.IsBranch() || OpJmp.IsCondBranch() {
		t.Error("jmp should be an unconditional branch")
	}
	if !OpLd.IsMem() || !OpLd.IsLoad() || OpLd.IsStore() {
		t.Error("ld predicates wrong")
	}
	if !OpFst.IsMem() || !OpFst.IsStore() || OpFst.IsLoad() {
		t.Error("fst predicates wrong")
	}
	if !OpFadd.IsFP() || OpAdd.IsFP() {
		t.Error("FP predicate wrong")
	}
	if OpHalt.IsBranch() || OpHalt.IsMem() {
		t.Error("halt predicates wrong")
	}
}

func TestDests(t *testing.T) {
	cases := []struct {
		in   Inst
		want bool
	}{
		{Inst{Op: OpAdd, Rd: 3}, true},
		{Inst{Op: OpAdd, Rd: RZero}, false}, // writes to r0 discarded
		{Inst{Op: OpSt, Rd: 3}, false},
		{Inst{Op: OpBeq, Rd: 3}, false},
		{Inst{Op: OpJal, Rd: RRA}, true},
		{Inst{Op: OpFld, Rd: F(2)}, true},
		{Inst{Op: OpHalt}, false},
	}
	for _, c := range cases {
		_, ok := c.in.Dests()
		if ok != c.want {
			t.Errorf("%v Dests() ok = %v, want %v", c.in, ok, c.want)
		}
	}
}

func TestSources(t *testing.T) {
	cases := []struct {
		in   Inst
		want int
	}{
		{Inst{Op: OpAdd, Rs1: 1, Rs2: 2}, 2},
		{Inst{Op: OpAdd, Rs1: RZero, Rs2: 2}, 1}, // r0 excluded
		{Inst{Op: OpAddi, Rs1: 1, Rs2: 9}, 1},    // rs2 unused by addi
		{Inst{Op: OpSt, Rs1: 1, Rs2: 2}, 2},
		{Inst{Op: OpJmp}, 0},
		{Inst{Op: OpJr, Rs1: RRA}, 1},
		{Inst{Op: OpLui, Rs1: 7}, 0},
		{Inst{Op: OpFmov, Rs1: F(1), Rs2: F(9)}, 1},
	}
	for _, c := range cases {
		got := c.in.Sources(nil)
		if len(got) != c.want {
			t.Errorf("%v Sources() = %v, want %d regs", c.in, got, c.want)
		}
	}
}

func TestLatencyPositive(t *testing.T) {
	for o := Op(0); int(o) < NumOps; o++ {
		if o.Latency() < 1 {
			t.Errorf("op %s latency %d < 1", o, o.Latency())
		}
	}
	if OpDiv.Latency() <= OpMul.Latency() {
		t.Error("div should be slower than mul")
	}
	if OpFdiv.Latency() <= OpFmul.Latency() {
		t.Error("fdiv should be slower than fmul")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: OpAddi, Rd: 1, Rs1: 2, Imm: 5}, "addi r1, r2, 5"},
		{Inst{Op: OpLd, Rd: 1, Rs1: 2, Imm: 8}, "ld r1, 8(r2)"},
		{Inst{Op: OpSt, Rs1: 2, Rs2: 3, Imm: 8}, "st r3, 8(r2)"},
		{Inst{Op: OpBeq, Rs1: 1, Rs2: 2, Targ: 9}, "beq r1, r2, 9"},
		{Inst{Op: OpJmp, Targ: 4}, "jmp 4"},
		{Inst{Op: OpJr, Rs1: 31}, "jr r31"},
		{Inst{Op: OpFmov, Rd: F(1), Rs1: F(2)}, "fmov f1, f2"},
		{Inst{Op: OpLui, Rd: 1, Imm: 3}, "lui r1, 3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
