package dataflow

import (
	"reflect"
	"testing"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

func mustAssemble(t *testing.T, name, src string) *prog.Program {
	t.Helper()
	p, err := prog.Assemble(name, src)
	if err != nil {
		t.Fatalf("assemble %s: %v", name, err)
	}
	return p
}

func TestRegSetBasics(t *testing.T) {
	s := Of(1, 5, isa.F(0), isa.F(31))
	if got := s.String(); got != "{r1 r5 f0 f31}" {
		t.Errorf("String = %q", got)
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d, want 4", s.Count())
	}
	for _, r := range []isa.Reg{1, 5, isa.F(0), isa.F(31)} {
		if !s.Has(r) {
			t.Errorf("Has(%v) = false", r)
		}
	}
	if s.Has(2) || s.Has(isa.F(5)) {
		t.Error("Has reports absent registers")
	}
	if !Of().Empty() || s.Empty() {
		t.Error("Empty is wrong")
	}
	// r0 is the hard-wired zero: never a member.
	if !Of(isa.RZero).Empty() {
		t.Error("Of(r0) should be empty")
	}
	ints, fps := s.Split()
	if back := FromMasks(ints, fps); back != s {
		t.Errorf("Split/FromMasks round trip: %v != %v", back, s)
	}
	if got := s.Regs(); !reflect.DeepEqual(got, []isa.Reg{1, 5, isa.F(0), isa.F(31)}) {
		t.Errorf("Regs = %v", got)
	}
	if got := RegSet(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestEffectOf(t *testing.T) {
	cases := []struct {
		name string
		in   isa.Inst
		want Effect
	}{
		{"add", isa.Inst{Op: isa.OpAdd, Rd: 3, Rs1: 1, Rs2: 2},
			Effect{Use: Of(1, 2), Def: Of(3)}},
		{"add_r0_sources", isa.Inst{Op: isa.OpAdd, Rd: 3, Rs1: 0, Rs2: 0},
			Effect{Def: Of(3)}},
		{"add_r0_dest_discard", isa.Inst{Op: isa.OpAddi, Rd: 0, Rs1: 1, Imm: 1},
			Effect{Use: Of(1)}},
		// Cross-namespace: an integer op writing an FP-named destination
		// is discarded by the machine (setInt drops it); FP-named
		// sources fold onto the *integer* file through r&31.
		{"add_fp_dest_discard", isa.Inst{Op: isa.OpAdd, Rd: isa.F(3), Rs1: 1, Rs2: 2},
			Effect{Use: Of(1, 2)}},
		{"add_fp_source_folds", isa.Inst{Op: isa.OpAdd, Rd: 3, Rs1: isa.F(5), Rs2: 2},
			Effect{Use: Of(5, 2), Def: Of(3)}},
		// Cross-namespace: FP ops read through the FP file regardless of
		// the operand's name, and int-named destinations are discarded.
		{"fadd_int_sources_fold", isa.Inst{Op: isa.OpFadd, Rd: isa.F(1), Rs1: 5, Rs2: 6},
			Effect{Use: Of(isa.F(5), isa.F(6)), Def: Of(isa.F(1))}},
		{"fadd_int_dest_discard", isa.Inst{Op: isa.OpFadd, Rd: 1, Rs1: isa.F(2), Rs2: isa.F(3)},
			Effect{Use: Of(isa.F(2), isa.F(3))}},
		// FP cell 0 is writable, so f0 reads are genuine uses — and so
		// are reads of the FP cell r0 folds to.
		{"fmov_f0", isa.Inst{Op: isa.OpFmov, Rd: isa.F(1), Rs1: isa.F(0)},
			Effect{Use: Of(isa.F(0)), Def: Of(isa.F(1))}},
		{"fmov_r0_source", isa.Inst{Op: isa.OpFmov, Rd: isa.F(1), Rs1: 0},
			Effect{Use: Of(isa.F(0)), Def: Of(isa.F(1))}},
		{"lui", isa.Inst{Op: isa.OpLui, Rd: 4, Imm: 7}, Effect{Def: Of(4)}},
		{"ld", isa.Inst{Op: isa.OpLd, Rd: 2, Rs1: 1, Imm: 8},
			Effect{Use: Of(1), Def: Of(2), Load: true}},
		{"ld_fp_dest_discard", isa.Inst{Op: isa.OpLd, Rd: isa.F(2), Rs1: 1},
			Effect{Use: Of(1), Load: true}},
		{"st", isa.Inst{Op: isa.OpSt, Rs1: 1, Rs2: 2},
			Effect{Use: Of(1, 2), Store: true}},
		{"fld", isa.Inst{Op: isa.OpFld, Rd: isa.F(2), Rs1: 1},
			Effect{Use: Of(1), Def: Of(isa.F(2)), Load: true}},
		{"fld_int_dest_discard", isa.Inst{Op: isa.OpFld, Rd: 2, Rs1: 1},
			Effect{Use: Of(1), Load: true}},
		{"fst", isa.Inst{Op: isa.OpFst, Rs1: 1, Rs2: isa.F(2)},
			Effect{Use: Of(1, isa.F(2)), Store: true}},
		{"cvtif", isa.Inst{Op: isa.OpCvtIF, Rd: isa.F(1), Rs1: 2},
			Effect{Use: Of(2), Def: Of(isa.F(1))}},
		{"cvtfi", isa.Inst{Op: isa.OpCvtFI, Rd: 1, Rs1: isa.F(2)},
			Effect{Use: Of(isa.F(2)), Def: Of(1)}},
		{"fcmplt", isa.Inst{Op: isa.OpFcmpLt, Rd: 1, Rs1: isa.F(2), Rs2: isa.F(3)},
			Effect{Use: Of(isa.F(2), isa.F(3)), Def: Of(1)}},
		{"beq", isa.Inst{Op: isa.OpBeq, Rs1: 1, Rs2: 2, Targ: 0},
			Effect{Use: Of(1, 2)}},
		{"jal", isa.Inst{Op: isa.OpJal, Rd: 31, Targ: 0}, Effect{Def: Of(31)}},
		{"jal_r0_discard", isa.Inst{Op: isa.OpJal, Rd: 0, Targ: 0}, Effect{}},
		{"jr", isa.Inst{Op: isa.OpJr, Rs1: 31}, Effect{Use: Of(31)}},
		{"jmp", isa.Inst{Op: isa.OpJmp, Targ: 0}, Effect{}},
		{"nop", isa.Inst{Op: isa.OpNop}, Effect{}},
		{"halt", isa.Inst{Op: isa.OpHalt}, Effect{}},
		{"invalid", isa.Inst{Op: isa.Op(250)}, Effect{Use: AllRegs, Load: true}},
	}
	for _, tc := range cases {
		if got := EffectOf(tc.in); got != tc.want {
			t.Errorf("%s: EffectOf = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

const asmLoopStore = `
    addi r1, r0, 10
loop:
    add  r3, r1, r2
    addi r1, r1, -1
    bne  r1, r0, loop
    st   r3, (r4)
    addi r5, r0, 7
    halt
`

func TestLivenessLoop(t *testing.T) {
	p := mustAssemble(t, "loopstore", asmLoopStore)
	d := New(p)

	// r2 (read in the loop, never written) and r4 (store address) are
	// the only live-in registers; r1/r3/r5 are defined before use.
	live, mem, err := d.LiveInAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := Of(2, 4); live != want {
		t.Errorf("LiveInAt(0) = %v, want %v", live, want)
	}
	if mem {
		t.Error("LiveInAt(0) mem = true for a load-free program")
	}

	// Inside the loop the counter and accumulator input are live too.
	live, _, err = d.LiveInAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := Of(1, 2, 4); live != want {
		t.Errorf("LiveInAt(1) = %v, want %v", live, want)
	}

	// After the final store nothing is live.
	live, _, err = d.LiveInAt(5)
	if err != nil {
		t.Fatal(err)
	}
	if want := Of(); live != want {
		t.Errorf("LiveInAt(5) = %v, want %v", live, want)
	}

	// The r5 write before halt is never read.
	dead := d.DeadWrites()
	if len(dead) != 1 || dead[0].PC != 5 || dead[0].Reg != Of(5) {
		t.Errorf("DeadWrites = %+v, want one at pc 5 for r5", dead)
	}

	if _, _, err := d.LiveInAt(-1); err == nil {
		t.Error("LiveInAt(-1) did not fail")
	}
	if _, _, err := d.LiveInAt(int64(len(p.Code))); err == nil {
		t.Error("LiveInAt(len) did not fail")
	}
}

func TestLivenessMemoryBit(t *testing.T) {
	p := mustAssemble(t, "memlive", `
    ld   r2, (r1)
    add  r3, r2, r2
    st   r3, (r1)
    halt
`)
	d := New(p)
	if _, mem, _ := d.LiveInAt(0); !mem {
		t.Error("mem live-in at 0 = false, want true (load ahead)")
	}
	if _, mem, _ := d.LiveInAt(1); mem {
		t.Error("mem live-in at 1 = true, want false (only a store ahead)")
	}
	if !d.MemLiveIn[p.BlockOf(0)] {
		t.Error("MemLiveIn[entry block] = false")
	}
}

func TestForCachesPerProgram(t *testing.T) {
	p := prog.ExampleNested(3, 3)
	if For(p) != For(p) {
		t.Error("For returned distinct instances for one program")
	}
	if New(p) == For(p) {
		t.Error("New unexpectedly returned the cached instance")
	}
}

func TestUnreachableBlocksGetFacts(t *testing.T) {
	p := mustAssemble(t, "unreach", `
    jmp end
    add r3, r1, r2
end:
    halt
`)
	d := New(p)
	if n := d.CFG.NumBlocks(); len(d.LiveIn) != n || len(d.LiveOut) != n {
		t.Fatalf("fact slices sized %d/%d, want %d", len(d.LiveIn), len(d.LiveOut), n)
	}
	// The dead add still gets a (locally sound) fact via LiveInAt.
	live, _, err := d.LiveInAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := Of(1, 2); live != want {
		t.Errorf("LiveInAt(dead pc) = %v, want %v", live, want)
	}
	// DeadWrites skips unreachable blocks.
	for _, dw := range d.DeadWrites() {
		if dw.PC == 1 {
			t.Error("DeadWrites reported an unreachable pc")
		}
	}
}

func TestGenKillSummaries(t *testing.T) {
	p := mustAssemble(t, "genkill", `
    add  r3, r1, r2
    add  r4, r3, r3
    ld   r5, (r4)
    halt
`)
	d := New(p)
	b := p.BlockOf(0)
	// r3 is written before its read at pc 1: killed, not gen.
	if want := Of(1, 2); d.Gen[b] != want {
		t.Errorf("Gen = %v, want %v", d.Gen[b], want)
	}
	if want := Of(3, 4, 5); d.Kill[b] != want {
		t.Errorf("Kill = %v, want %v", d.Kill[b], want)
	}
	if !d.Loads[b] || d.Stores[b] {
		t.Errorf("Loads/Stores = %v/%v", d.Loads[b], d.Stores[b])
	}
}
