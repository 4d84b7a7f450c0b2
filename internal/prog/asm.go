package prog

import (
	"fmt"
	"strconv"
	"strings"

	"mlpa/internal/isa"
)

// Assemble parses a textual assembly listing into a Program. The
// syntax matches Disassemble output plus labels and ';' comments:
//
//	init:
//	    addi r1, r0, 100    ; trip count
//	loop:
//	    addi r1, r1, -1
//	    bne  r1, r0, loop
//	    halt
//
// Branch targets may be labels or absolute instruction indices.
func Assemble(name, src string) (*Program, error) {
	type pending struct {
		pc    int64
		label string // empty when the source gave an absolute index
		line  int
	}
	var (
		code    []isa.Inst
		labels  = make(map[string]int64)
		fixes   []pending
		lineNum int
	)
	fail := func(line int, format string, args ...any) error {
		return fmt.Errorf("asm %q line %d: %s", name, line, fmt.Sprintf(format, args...))
	}

	for _, raw := range strings.Split(src, "\n") {
		lineNum++
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// One or more leading labels.
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if label == "" || strings.ContainsAny(label, " \t,()") {
				return nil, fail(lineNum, "bad label %q", label)
			}
			if _, numeric := isIndexPrefix(label); numeric {
				// A pure-numeric prefix is Disassemble's instruction-index
				// annotation, not a label definition: numeric branch
				// targets always resolve as absolute indices, so a numeric
				// label could never be referenced anyway.
				line = strings.TrimSpace(line[i+1:])
				continue
			}
			if _, dup := labels[label]; dup {
				return nil, fail(lineNum, "duplicate label %q", label)
			}
			labels[label] = int64(len(code))
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		mnemonic, rest, _ := strings.Cut(line, " ")
		mnemonic = strings.ToLower(strings.TrimSpace(mnemonic))
		operands := splitOperands(rest)

		op, ok := opByName(mnemonic)
		if !ok {
			return nil, fail(lineNum, "unknown mnemonic %q", mnemonic)
		}
		in, labelRef, err := parseOperands(op, operands)
		if err != nil {
			return nil, fail(lineNum, "%v", err)
		}
		// Every control-transfer instruction gets a fixup entry — label
		// references for resolution, absolute targets for the range
		// check below — so a bad target is reported with its line.
		switch {
		case labelRef != "":
			fixes = append(fixes, pending{pc: int64(len(code)), label: labelRef, line: lineNum})
		case op.HasTarget():
			fixes = append(fixes, pending{pc: int64(len(code)), line: lineNum})
		}
		code = append(code, in)
	}

	for _, f := range fixes {
		if f.label != "" {
			target, ok := labels[f.label]
			if !ok {
				return nil, fail(f.line, "undefined label %q", f.label)
			}
			code[f.pc].Targ = target
		}
		// A label on the last line with no instruction after it resolves
		// to len(code): also past the end.
		if t := code[f.pc].Targ; t < 0 || t >= int64(len(code)) {
			return nil, fail(f.line, "branch target %d outside code [0,%d)", t, len(code))
		}
	}
	p := &Program{Name: name, Code: code, Labels: labels}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// isIndexPrefix reports whether a "label" before ':' is really a
// numeric instruction-index annotation as emitted by Disassemble.
func isIndexPrefix(label string) (int64, bool) {
	v, err := strconv.ParseInt(label, 0, 64)
	return v, err == nil
}

func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

var nameToOp = func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps)
	for o := isa.Op(0); int(o) < isa.NumOps; o++ {
		m[o.String()] = o
	}
	return m
}()

func opByName(name string) (isa.Op, bool) {
	o, ok := nameToOp[name]
	return o, ok
}

func parseReg(s string) (isa.Reg, error) {
	if len(s) < 2 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil {
		return 0, fmt.Errorf("bad register %q", s)
	}
	switch s[0] {
	case 'r', 'R':
		if n < 0 || n >= isa.NumIntRegs {
			return 0, fmt.Errorf("integer register %q out of range", s)
		}
		return isa.Reg(n), nil
	case 'f', 'F':
		if n < 0 || n >= isa.NumFPRegs {
			return 0, fmt.Errorf("fp register %q out of range", s)
		}
		return isa.F(n), nil
	}
	return 0, fmt.Errorf("bad register %q", s)
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

// parseMem parses "disp(reg)" memory operand syntax; nothing may
// follow the closing parenthesis.
func parseMem(s string) (base isa.Reg, disp int64, err error) {
	open := strings.IndexByte(s, '(')
	close := strings.IndexByte(s, ')')
	if open < 0 || close < open || close != len(s)-1 {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	if d := strings.TrimSpace(s[:open]); d != "" {
		if disp, err = parseImm(d); err != nil {
			return 0, 0, err
		}
	}
	base, err = parseReg(strings.TrimSpace(s[open+1 : close]))
	return base, disp, err
}

// parseTarget parses a branch target: either a label name (returned in
// labelRef) or an absolute index.
func parseTarget(s string) (abs int64, labelRef string, err error) {
	if s == "" {
		return 0, "", fmt.Errorf("missing branch target")
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, "", nil
	}
	return 0, s, nil
}

// parseOperands parses an instruction's operands in the assembly order
// of op's opcode-table row.
func parseOperands(op isa.Op, ops []string) (in isa.Inst, labelRef string, err error) {
	in.Op = op
	want := op.Operands()
	if len(ops) != len(want) {
		return in, "", fmt.Errorf("%s expects %d operands, got %d", op, len(want), len(ops))
	}
	for i, x := range want {
		s := ops[i]
		switch x.Field {
		case isa.FieldRd:
			in.Rd, err = parseReg(s)
		case isa.FieldRs1:
			in.Rs1, err = parseReg(s)
		case isa.FieldRs2:
			in.Rs2, err = parseReg(s)
		case isa.FieldImm:
			in.Imm, err = parseImm(s)
		case isa.FieldMem:
			in.Rs1, in.Imm, err = parseMem(s)
		case isa.FieldTarg:
			in.Targ, labelRef, err = parseTarget(s)
		}
		if err != nil {
			return in, labelRef, err
		}
	}
	return in, labelRef, nil
}
