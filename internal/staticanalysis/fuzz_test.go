package staticanalysis

import (
	"testing"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// FuzzVerify: the verifier (and the CFG/dominator/loop analyses built
// on top of it) must never panic on any program the assembler accepts
// — it reports structural problems as diagnostics instead.
func FuzzVerify(f *testing.F) {
	for _, p := range prog.Examples() {
		f.Add(p.Disassemble())
	}
	f.Add("start:\n  li r1, 3\n  halt\n")
	f.Add("loop:\n  addi r1, r1, -1\n  bne r1, r0, loop\n  halt\n")
	f.Add("  jmp missing\n")
	f.Add("  ld f1, r2, 8\n  halt\n")
	f.Add(topRegisters(f).Disassemble())
	f.Fuzz(func(t *testing.T, src string) {
		p, err := prog.Assemble("fuzz", src)
		if err != nil {
			return
		}
		rep := Verify(p)
		if rep == nil {
			t.Fatal("Verify returned nil report")
		}
		// The structural analyses must also hold up on whatever the
		// verifier accepts.
		if rep.OK() {
			cfg := BuildCFG(p)
			doms := Dominators(cfg)
			if len(doms.Idom) != len(cfg.Blocks) {
				t.Fatalf("dominator set size %d != block count %d", len(doms.Idom), len(cfg.Blocks))
			}
			FindLoops(cfg, doms)
		}
	})
}

// topRegisters builds, through prog.Builder, one instruction of every
// opcode with each register operand at the top of its file (r31, f31)
// and each direct target at instruction 0: the highest registers the
// builder's validation lets through to the verifier's per-register
// tables.
func topRegisters(f *testing.F) *prog.Program {
	b := prog.NewBuilder("topregs")
	for op := isa.Op(0); op.Valid(); op++ {
		in := isa.Inst{Op: op}
		for _, x := range op.Operands() {
			r := isa.Reg(31)
			if x.File == isa.FPFile {
				r = isa.F(31)
			}
			switch x.Field {
			case isa.FieldRd:
				in.Rd = r
			case isa.FieldRs1, isa.FieldMem:
				in.Rs1 = r
			case isa.FieldRs2:
				in.Rs2 = r
			}
		}
		b.Emit(in)
	}
	p, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	return p
}
