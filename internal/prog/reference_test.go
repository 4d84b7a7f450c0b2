package prog

import (
	"fmt"
	"testing"

	"mlpa/internal/isa"
)

// refParseOperands is a frozen copy of the per-opcode operand switch
// the opcode table replaced. It shares the token parsers (parseReg,
// parseImm, parseMem, parseTarget) with the assembler; what it pins is
// which field each operand fills, in which order, and the arity check.
func refParseOperands(op isa.Op, ops []string) (in isa.Inst, labelRef string, err error) {
	in.Op = op
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s expects %d operands, got %d", op, n, len(ops))
		}
		return nil
	}
	switch op {
	case isa.OpNop, isa.OpHalt:
		err = need(0)
	case isa.OpJmp:
		if err = need(1); err == nil {
			in.Targ, labelRef, err = parseTarget(ops[0])
		}
	case isa.OpJal:
		if err = need(2); err == nil {
			if in.Rd, err = parseReg(ops[0]); err == nil {
				in.Targ, labelRef, err = parseTarget(ops[1])
			}
		}
	case isa.OpJr:
		if err = need(1); err == nil {
			in.Rs1, err = parseReg(ops[0])
		}
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		if err = need(3); err == nil {
			if in.Rs1, err = parseReg(ops[0]); err == nil {
				if in.Rs2, err = parseReg(ops[1]); err == nil {
					in.Targ, labelRef, err = parseTarget(ops[2])
				}
			}
		}
	case isa.OpLd, isa.OpFld:
		if err = need(2); err == nil {
			if in.Rd, err = parseReg(ops[0]); err == nil {
				in.Rs1, in.Imm, err = parseMem(ops[1])
			}
		}
	case isa.OpSt, isa.OpFst:
		if err = need(2); err == nil {
			if in.Rs2, err = parseReg(ops[0]); err == nil {
				in.Rs1, in.Imm, err = parseMem(ops[1])
			}
		}
	case isa.OpLui:
		if err = need(2); err == nil {
			if in.Rd, err = parseReg(ops[0]); err == nil {
				in.Imm, err = parseImm(ops[1])
			}
		}
	case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpShli, isa.OpShri, isa.OpSlti:
		if err = need(3); err == nil {
			if in.Rd, err = parseReg(ops[0]); err == nil {
				if in.Rs1, err = parseReg(ops[1]); err == nil {
					in.Imm, err = parseImm(ops[2])
				}
			}
		}
	case isa.OpFneg, isa.OpFmov, isa.OpCvtIF, isa.OpCvtFI:
		if err = need(2); err == nil {
			if in.Rd, err = parseReg(ops[0]); err == nil {
				in.Rs1, err = parseReg(ops[1])
			}
		}
	default: // three-register forms
		if err = need(3); err == nil {
			if in.Rd, err = parseReg(ops[0]); err == nil {
				if in.Rs1, err = parseReg(ops[1]); err == nil {
					in.Rs2, err = parseReg(ops[2])
				}
			}
		}
	}
	return in, labelRef, err
}

// operandTokens mixes every operand kind, well-formed and malformed:
// registers of both files and out of range, immediates in each base,
// memory operands with and without a displacement or a closing
// parenthesis or with text after it, labels and absolute targets.
var operandTokens = []string{
	"r0", "r7", "F31", "f2", "r32", "f99", "rX", "",
	"-8", "0x10", "abc",
	"8(r2)", "(f3)", "8(r2", "x(r1)", "4(r1)junk", "4(r1)(r2)",
	"loop", "3",
}

// TestParseOperandsMatchesReference parses every mnemonic against
// every operand list of up to three tokens from operandTokens, plus
// one of four, and requires the same accepted instruction and label,
// or the same error text, as the frozen switch.
func TestParseOperandsMatchesReference(t *testing.T) {
	lists := [][]string{nil, {"r1", "r2", "r3", "r4"}}
	for _, a := range operandTokens {
		lists = append(lists, []string{a})
		for _, b := range operandTokens {
			lists = append(lists, []string{a, b})
			for _, c := range operandTokens {
				lists = append(lists, []string{a, b, c})
			}
		}
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		for _, ops := range lists {
			in, label, err := parseOperands(op, ops)
			win, wlabel, werr := refParseOperands(op, ops)
			switch {
			case (err == nil) != (werr == nil):
				t.Fatalf("%s %q: err = %v, reference %v", op, ops, err, werr)
			case err != nil:
				if err.Error() != werr.Error() {
					t.Fatalf("%s %q: err = %q, reference %q", op, ops, err, werr)
				}
			case in != win || label != wlabel:
				t.Fatalf("%s %q: parsed %+v label %q, reference %+v label %q", op, ops, in, label, win, wlabel)
			}
		}
	}
}
