// Package isa defines the mini RISC instruction set used by the
// functional emulator and the detailed out-of-order timing model.
//
// The ISA is a stand-in for SimpleScalar's PISA: a load/store
// architecture with 32 integer and 32 floating-point registers,
// fixed-size instructions and a small, orthogonal opcode set. It is
// deliberately simple — the sampling framework only needs a
// deterministic committed-instruction stream with realistic control
// flow and memory behaviour, not a full commercial ISA.
package isa

import (
	"fmt"
	"strconv"
)

// NumIntRegs and NumFPRegs are the architectural register-file sizes
// (32 integer, 32 floating point, per Table I of the paper).
const (
	NumIntRegs = 32
	NumFPRegs  = 32
)

// Reg names an architectural register. Integer registers are
// [0, NumIntRegs); floating-point registers are offset by FPBase so a
// single namespace covers both files.
type Reg uint8

// FPBase is the offset of the floating-point register file within the
// unified Reg namespace.
const FPBase Reg = 32

// Conventional integer register roles. R0 is hard-wired to zero, like
// MIPS $zero; writes to it are discarded.
const (
	RZero Reg = 0  // always reads as 0
	RSP   Reg = 29 // stack pointer by convention
	RRA   Reg = 31 // link register for JAL
)

// F returns the unified-namespace register for floating-point register
// number i.
func F(i int) Reg { return FPBase + Reg(i) }

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= FPBase }

// String renders the register in assembly syntax (r0..r31, f0..f31).
func (r Reg) String() string { return string(r.appendName(nil)) }

// appendName appends the register's assembly name to b.
func (r Reg) appendName(b []byte) []byte {
	if r.IsFP() {
		return strconv.AppendUint(append(b, 'f'), uint64(r-FPBase), 10)
	}
	return strconv.AppendUint(append(b, 'r'), uint64(r), 10)
}

// Op is an operation code.
type Op uint8

// Opcode space. Grouped by functional class; Class() derives the
// class used for functional-unit scheduling in the timing model.
const (
	OpNop Op = iota

	// Integer ALU, register-register.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSlt // set-less-than

	// Integer ALU, register-immediate.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpShli
	OpShri
	OpSlti
	OpLui // load upper immediate (rd = imm << 16)

	// Memory.
	OpLd  // rd = mem[rs1+imm] (64-bit int)
	OpSt  // mem[rs1+imm] = rs2
	OpFld // fd = mem[rs1+imm] (float64)
	OpFst // mem[rs1+imm] = fs2

	// Floating point.
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFneg
	OpFmov
	OpCvtIF // int -> float
	OpCvtFI // float -> int (truncate)
	OpFcmpLt
	OpFcmpEq

	// Control.
	OpBeq // branch if rs1 == rs2
	OpBne
	OpBlt
	OpBge
	OpJmp // unconditional direct jump
	OpJal // jump and link (rd = return address)
	OpJr  // jump register (indirect)
	OpHalt

	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Class partitions opcodes by the functional unit that executes them
// in the detailed model.
type Class uint8

// Functional-unit classes, mirroring SimpleScalar's resource pools
// (Table I: integer ALU, load/store units, FP adders, integer
// MULT/DIV, FP MULT/DIV).
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul // integer multiply/divide
	ClassLoad
	ClassStore
	ClassFPAdd // FP add/sub/compare/convert/move
	ClassFPMul // FP multiply/divide
	ClassBranch
	NumClasses
)

// Field names the Inst field an assembly operand fills.
type Field uint8

// Operand fields. A register in Rd is written; registers in Rs1, Rs2
// and the base of Mem are read.
const (
	FieldRd   Field = iota + 1 // Rd, a register
	FieldRs1                   // Rs1, a register
	FieldRs2                   // Rs2, a register
	FieldImm                   // Imm, an integer
	FieldMem                   // Imm(Rs1): displacement and base register
	FieldTarg                  // Targ, a branch target
)

// RegFile is the register file through which the machine reads or
// writes a register operand.
type RegFile uint8

// Register files. Operands that are not registers have NoRegFile.
const (
	NoRegFile RegFile = iota
	IntFile
	FPFile
)

// Operand is one assembly operand of an opcode: the field it fills
// and, for a register, its file.
type Operand struct {
	Field Field
	File  RegFile
}

var (
	rdI  = Operand{FieldRd, IntFile}
	rdF  = Operand{FieldRd, FPFile}
	rs1I = Operand{FieldRs1, IntFile}
	rs1F = Operand{FieldRs1, FPFile}
	rs2I = Operand{FieldRs2, IntFile}
	rs2F = Operand{FieldRs2, FPFile}
	imm  = Operand{Field: FieldImm}
	mem  = Operand{FieldMem, IntFile}
	targ = Operand{Field: FieldTarg}

	intRRR = []Operand{rdI, rs1I, rs2I}
	intRRI = []Operand{rdI, rs1I, imm}
	fpRRR  = []Operand{rdF, rs1F, rs2F}
	fpRR   = []Operand{rdF, rs1F}
	fpCmp  = []Operand{rdI, rs1F, rs2F}
	cond   = []Operand{rs1I, rs2I, targ}
)

// opInfo is the one definition of each opcode: its mnemonic, its
// functional-unit class, its execution latency in cycles on that unit
// (SimpleScalar's defaults; memory operations pay the cache latency
// separately) and its operands in assembly order. Disassembly,
// assembly, register sources and destinations, the dataflow effects
// and the control-flow predicates are all derived from it.
var opInfo = [NumOps]struct {
	name     string
	class    Class
	latency  uint8
	operands []Operand
}{
	OpNop:    {"nop", ClassNop, 1, nil},
	OpAdd:    {"add", ClassIntALU, 1, intRRR},
	OpSub:    {"sub", ClassIntALU, 1, intRRR},
	OpMul:    {"mul", ClassIntMul, 3, intRRR},
	OpDiv:    {"div", ClassIntMul, 12, intRRR},
	OpRem:    {"rem", ClassIntMul, 12, intRRR},
	OpAnd:    {"and", ClassIntALU, 1, intRRR},
	OpOr:     {"or", ClassIntALU, 1, intRRR},
	OpXor:    {"xor", ClassIntALU, 1, intRRR},
	OpShl:    {"shl", ClassIntALU, 1, intRRR},
	OpShr:    {"shr", ClassIntALU, 1, intRRR},
	OpSlt:    {"slt", ClassIntALU, 1, intRRR},
	OpAddi:   {"addi", ClassIntALU, 1, intRRI},
	OpAndi:   {"andi", ClassIntALU, 1, intRRI},
	OpOri:    {"ori", ClassIntALU, 1, intRRI},
	OpXori:   {"xori", ClassIntALU, 1, intRRI},
	OpShli:   {"shli", ClassIntALU, 1, intRRI},
	OpShri:   {"shri", ClassIntALU, 1, intRRI},
	OpSlti:   {"slti", ClassIntALU, 1, intRRI},
	OpLui:    {"lui", ClassIntALU, 1, []Operand{rdI, imm}},
	OpLd:     {"ld", ClassLoad, 1, []Operand{rdI, mem}},
	OpSt:     {"st", ClassStore, 1, []Operand{rs2I, mem}},
	OpFld:    {"fld", ClassLoad, 1, []Operand{rdF, mem}},
	OpFst:    {"fst", ClassStore, 1, []Operand{rs2F, mem}},
	OpFadd:   {"fadd", ClassFPAdd, 2, fpRRR},
	OpFsub:   {"fsub", ClassFPAdd, 2, fpRRR},
	OpFmul:   {"fmul", ClassFPMul, 4, fpRRR},
	OpFdiv:   {"fdiv", ClassFPMul, 12, fpRRR},
	OpFneg:   {"fneg", ClassFPAdd, 2, fpRR},
	OpFmov:   {"fmov", ClassFPAdd, 2, fpRR},
	OpCvtIF:  {"cvtif", ClassFPAdd, 2, []Operand{rdF, rs1I}},
	OpCvtFI:  {"cvtfi", ClassFPAdd, 2, []Operand{rdI, rs1F}},
	OpFcmpLt: {"fcmplt", ClassFPAdd, 2, fpCmp},
	OpFcmpEq: {"fcmpeq", ClassFPAdd, 2, fpCmp},
	OpBeq:    {"beq", ClassBranch, 1, cond},
	OpBne:    {"bne", ClassBranch, 1, cond},
	OpBlt:    {"blt", ClassBranch, 1, cond},
	OpBge:    {"bge", ClassBranch, 1, cond},
	OpJmp:    {"jmp", ClassBranch, 1, []Operand{targ}},
	OpJal:    {"jal", ClassBranch, 1, []Operand{rdI, targ}},
	OpJr:     {"jr", ClassBranch, 1, []Operand{rs1I}},
	OpHalt:   {"halt", ClassNop, 1, nil},
}

// String returns the assembly mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < NumOps {
		return opInfo[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class returns the functional-unit class executing o.
func (o Op) Class() Class {
	if int(o) < NumOps {
		return opInfo[o].class
	}
	return ClassNop
}

// Latency returns the execution latency in cycles of the opcode on its
// functional unit.
func (o Op) Latency() int {
	if int(o) < NumOps {
		return int(opInfo[o].latency)
	}
	return 1
}

// Operands returns the opcode's operands in assembly order. An
// undefined opcode reads as three integer registers (rd, rs1, rs2).
// The caller must not modify the returned slice.
func (o Op) Operands() []Operand {
	if int(o) < NumOps {
		return opInfo[o].operands
	}
	return intRRR
}

// FileOf returns the file through which o reads or writes the register
// in field f (FieldRd, FieldRs1 or FieldRs2; a Mem operand reads Rs1),
// or NoRegFile when o uses no register there.
func (o Op) FileOf(f Field) RegFile {
	for _, x := range o.Operands() {
		if x.Field == f || (x.Field == FieldMem && f == FieldRs1) {
			return x.File
		}
	}
	return NoRegFile
}

// HasTarget reports whether the opcode carries a direct target in
// Targ.
func (o Op) HasTarget() bool {
	for _, x := range o.Operands() {
		if x.Field == FieldTarg {
			return true
		}
	}
	return false
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return int(o) < NumOps }

// IsBranch reports whether the opcode redirects control flow.
func (o Op) IsBranch() bool { return o.Class() == ClassBranch }

// IsCondBranch reports whether the opcode is a conditional branch: a
// direct transfer that reads registers.
func (o Op) IsCondBranch() bool {
	return o.HasTarget() && o.FileOf(FieldRs1) != NoRegFile
}

// IsMem reports whether the opcode accesses data memory.
func (o Op) IsMem() bool {
	c := o.Class()
	return c == ClassLoad || c == ClassStore
}

// IsLoad reports whether the opcode is a memory load.
func (o Op) IsLoad() bool { return o.Class() == ClassLoad }

// IsStore reports whether the opcode is a memory store.
func (o Op) IsStore() bool { return o.Class() == ClassStore }

// IsFP reports whether the opcode executes in the FP pipeline.
func (o Op) IsFP() bool {
	c := o.Class()
	return c == ClassFPAdd || c == ClassFPMul
}

// Inst is a decoded instruction. PC-relative targets of branches are
// held as absolute instruction indices (the program counter counts
// instructions, not bytes; InstBytes converts for cache indexing).
type Inst struct {
	Op   Op
	Rd   Reg   // destination (integer or FP namespace)
	Rs1  Reg   // first source
	Rs2  Reg   // second source
	Imm  int64 // immediate / displacement
	Targ int64 // absolute branch/jump target (instruction index)
}

// InstBytes is the architectural size of one instruction in bytes,
// used to derive instruction-cache addresses from PC indices.
const InstBytes = 8

// Dests returns the destination register, if any, and whether one
// exists. R0 never counts as a destination.
func (in *Inst) Dests() (Reg, bool) {
	if in.Rd == RZero || in.Op.FileOf(FieldRd) == NoRegFile {
		return 0, false
	}
	return in.Rd, true
}

// Sources appends the source registers of the instruction to dst, Rs1
// before Rs2, and returns the extended slice. R0 is excluded (it has
// no producer).
func (in *Inst) Sources(dst []Reg) []Reg {
	if in.Rs1 != RZero && in.Op.FileOf(FieldRs1) != NoRegFile {
		dst = append(dst, in.Rs1)
	}
	if in.Rs2 != RZero && in.Op.FileOf(FieldRs2) != NoRegFile {
		dst = append(dst, in.Rs2)
	}
	return dst
}

// String disassembles the instruction: the mnemonic, then its operands
// in assembly order.
func (in Inst) String() string {
	var buf [48]byte
	b := append(buf[:0], in.Op.String()...)
	sep := " "
	for _, x := range in.Op.Operands() {
		b = append(b, sep...)
		sep = ", "
		switch x.Field {
		case FieldRd:
			b = in.Rd.appendName(b)
		case FieldRs1:
			b = in.Rs1.appendName(b)
		case FieldRs2:
			b = in.Rs2.appendName(b)
		case FieldImm:
			b = strconv.AppendInt(b, in.Imm, 10)
		case FieldMem:
			b = append(strconv.AppendInt(b, in.Imm, 10), '(')
			b = append(in.Rs1.appendName(b), ')')
		case FieldTarg:
			b = strconv.AppendInt(b, in.Targ, 10)
		}
	}
	return string(b)
}
