package prog

import (
	"strings"
	"testing"

	"mlpa/internal/isa"
)

const asmLoop = `
; counting loop
    addi r1, r0, 10
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
`

func TestAssembleLoop(t *testing.T) {
	p, err := Assemble("loop", asmLoop)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 5 {
		t.Fatalf("len(Code) = %d, want 5", len(p.Code))
	}
	if p.Code[3].Op != isa.OpBne || p.Code[3].Targ != 1 {
		t.Errorf("branch = %v", p.Code[3])
	}
}

func TestAssembleMemoryOperands(t *testing.T) {
	src := `
    addi r1, r0, 64
    ld   r2, 8(r1)
    st   r2, 16(r1)
    fld  f1, (r1)
    fst  f1, -8(r1)
    halt
`
	p, err := Assemble("mem", src)
	if err != nil {
		t.Fatal(err)
	}
	ld := p.Code[1]
	if ld.Op != isa.OpLd || ld.Rd != 2 || ld.Rs1 != 1 || ld.Imm != 8 {
		t.Errorf("ld = %v", ld)
	}
	st := p.Code[2]
	if st.Op != isa.OpSt || st.Rs2 != 2 || st.Rs1 != 1 || st.Imm != 16 {
		t.Errorf("st = %v", st)
	}
	fld := p.Code[3]
	if fld.Op != isa.OpFld || fld.Rd != isa.F(1) || fld.Imm != 0 {
		t.Errorf("fld = %v", fld)
	}
	fst := p.Code[4]
	if fst.Op != isa.OpFst || fst.Rs2 != isa.F(1) || fst.Imm != -8 {
		t.Errorf("fst = %v", fst)
	}
}

func TestAssembleFPAndJumps(t *testing.T) {
	src := `
start:
    fadd f1, f2, f3
    fneg f4, f1
    cvtif f5, r1
    cvtfi r2, f5
    jal  r31, func
    jmp  end
func:
    jr   r31
end:
    halt
`
	p, err := Assemble("fp", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Rd != isa.F(1) || p.Code[0].Rs1 != isa.F(2) {
		t.Errorf("fadd = %v", p.Code[0])
	}
	if p.Code[4].Op != isa.OpJal || p.Code[4].Targ != p.Labels["func"] {
		t.Errorf("jal = %v", p.Code[4])
	}
	if p.Code[5].Targ != p.Labels["end"] {
		t.Errorf("jmp = %v", p.Code[5])
	}
}

func TestAssembleNumericTarget(t *testing.T) {
	p, err := Assemble("num", "nop\njmp 0\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Targ != 0 {
		t.Errorf("jmp target = %d", p.Code[1].Targ)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown mnemonic", "frobnicate r1\nhalt", "unknown mnemonic"},
		{"bad register", "addi rX, r0, 1\nhalt", "register"},
		{"reg out of range", "addi r99, r0, 1\nhalt", "out of range"},
		{"fp out of range", "fmov f99, f0\nhalt", "out of range"},
		{"wrong arity", "add r1, r2\nhalt", "expects 3 operands"},
		{"undefined label", "jmp nowhere\nhalt", "undefined label"},
		{"duplicate label", "x:\nnop\nx:\nhalt", "duplicate label"},
		{"bad immediate", "addi r1, r0, abc\nhalt", "immediate"},
		{"bad memory operand", "ld r1, r2\nhalt", "memory operand"},
		{"text after memory operand", "ld r1, 8(r2)junk\nhalt", `bad memory operand "8(r2)junk"`},
		{"second memory operand", "ld r1, 8(r2)(r3)\nhalt", `bad memory operand "8(r2)(r3)"`},
		{"no halt", "nop", "no halt"},
		{"absolute target past end", "nop\njmp 50\nhalt", "target 50 outside code [0,3)"},
		{"negative absolute target", "beq r1, r0, -2\nhalt", "target -2 outside"},
		{"trailing label target", "jmp end\nnop\nhalt\nend:", "target 3 outside code [0,3)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble("t", c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

// TestAssembleErrorNamesLine: target diagnostics carry the source line
// of the offending branch, not the end of the listing.
func TestAssembleErrorNamesLine(t *testing.T) {
	src := "nop\nnop\njmp 99\nhalt"
	_, err := Assemble("lines", src)
	if err == nil {
		t.Fatal("bad target accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want it to name line 3", err)
	}
	_, err = Assemble("lines", "x:\nnop\nx:\nhalt")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("duplicate-label err = %v, want it to name line 3", err)
	}
}

// Round trip: disassembling an assembled program and re-assembling it
// yields identical code.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	p, err := Assemble("rt", asmLoop)
	if err != nil {
		t.Fatal(err)
	}
	// Disassemble emits "idx: inst" lines; strip indices to re-assemble.
	var sb strings.Builder
	for _, line := range strings.Split(p.Disassemble(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if i := strings.Index(line, ":  "); i >= 0 && !strings.HasSuffix(line, ":") {
			line = line[i+3:]
		}
		sb.WriteString(line + "\n")
	}
	p2, err := Assemble("rt2", sb.String())
	if err != nil {
		t.Fatalf("reassemble: %v\nsource:\n%s", err, sb.String())
	}
	if len(p2.Code) != len(p.Code) {
		t.Fatalf("code length %d != %d", len(p2.Code), len(p.Code))
	}
	for i := range p.Code {
		if p.Code[i] != p2.Code[i] {
			t.Errorf("inst %d: %v != %v", i, p.Code[i], p2.Code[i])
		}
	}
}
