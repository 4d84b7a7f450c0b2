package prog

import (
	"testing"

	"mlpa/internal/isa"
)

// FuzzAssembleRoundTrip: any source the assembler accepts must
// disassemble to source the assembler accepts again, producing the
// identical instruction stream — the textual form is a lossless
// encoding of the program. The assembler may reject input (that is its
// job); it must never panic, and it must never accept-then-mangle.
func FuzzAssembleRoundTrip(f *testing.F) {
	for _, p := range Examples() {
		f.Add(p.Name, p.Disassemble())
	}
	// One line per opcode, its registers in the files the opcode table
	// names and its target the halt after it.
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		reg := func(field isa.Field, n int) isa.Reg {
			if op.FileOf(field) == isa.FPFile {
				return isa.F(n)
			}
			return isa.Reg(n)
		}
		in := isa.Inst{Op: op, Rd: reg(isa.FieldRd, 1), Rs1: reg(isa.FieldRs1, 2),
			Rs2: reg(isa.FieldRs2, 3), Imm: -8, Targ: 1}
		f.Add(op.String(), in.String()+"\nhalt\n")
	}
	f.Add("tiny", "start:\n  li r1, 3\n  halt\n")
	f.Add("empty", "")
	f.Add("junk", "not an instruction\n\x00\xff")
	f.Add("label-only", "loop:\n")
	f.Fuzz(func(t *testing.T, name, src string) {
		p, err := Assemble(name, src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		dis := p.Disassemble()
		p2, err := Assemble(name, dis)
		if err != nil {
			t.Fatalf("disassembly of accepted program rejected: %v\nsource:\n%s\ndisassembly:\n%s", err, src, dis)
		}
		if len(p2.Code) != len(p.Code) {
			t.Fatalf("round-trip length %d != %d", len(p2.Code), len(p.Code))
		}
		for i := range p.Code {
			if p2.Code[i] != p.Code[i] {
				t.Fatalf("round-trip instruction %d: %v != %v\ndisassembly:\n%s", i, p2.Code[i], p.Code[i], dis)
			}
		}
		if p2.DataSize != p.DataSize {
			t.Fatalf("round-trip DataSize %d != %d", p2.DataSize, p.DataSize)
		}
		// The round-trip must be a fixed point: disassembling again
		// yields the same text.
		if dis2 := p2.Disassemble(); dis2 != dis {
			t.Fatalf("disassembly not a fixed point:\nfirst:\n%s\nsecond:\n%s", dis, dis2)
		}
	})
}
