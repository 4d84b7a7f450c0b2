package prog

import (
	"strings"
	"testing"

	"mlpa/internal/isa"
)

func simpleLoopProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("simple")
	b.Addi(1, isa.RZero, 10) // r1 = 10
	b.Label("loop")
	b.Addi(2, 2, 1) // r2++
	b.Addi(1, 1, -1)
	b.Bne(1, isa.RZero, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderBasic(t *testing.T) {
	p := simpleLoopProgram(t)
	if len(p.Code) != 5 {
		t.Fatalf("len(Code) = %d, want 5", len(p.Code))
	}
	if p.Code[3].Targ != 1 {
		t.Errorf("branch target = %d, want 1", p.Code[3].Targ)
	}
	if p.Labels["loop"] != 1 {
		t.Errorf("label loop = %d, want 1", p.Labels["loop"])
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("Build() err = %v, want undefined-label error", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("Build() with duplicate label succeeded")
	}
}

func TestBuilderUnclosedLoop(t *testing.T) {
	b := NewBuilder("open")
	b.BeginLoop("l")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("Build() with unclosed loop succeeded")
	}
}

func TestBuilderEndLoopWithoutBegin(t *testing.T) {
	b := NewBuilder("endonly")
	b.EndLoop()
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("Build() with stray EndLoop succeeded")
	}
}

func TestCountedLoopMetadata(t *testing.T) {
	b := NewBuilder("counted")
	b.CountedLoop("outer", 5, 3, func() {
		b.CountedLoop("inner", 6, 4, func() {
			b.Add(2, 2, 2)
		})
	})
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Loops) != 2 {
		t.Fatalf("len(Loops) = %d, want 2", len(p.Loops))
	}
	var outer, inner LoopInfo
	for _, l := range p.Loops {
		switch l.Name {
		case "outer":
			outer = l
		case "inner":
			inner = l
		}
	}
	if outer.Depth != 0 || inner.Depth != 1 {
		t.Errorf("depths outer=%d inner=%d, want 0 and 1", outer.Depth, inner.Depth)
	}
	if !(outer.Head <= inner.Head && inner.End <= outer.End) {
		t.Errorf("inner [%d,%d) not nested in outer [%d,%d)", inner.Head, inner.End, outer.Head, outer.End)
	}
}

func TestValidate(t *testing.T) {
	bad := &Program{Name: "x", Code: []isa.Inst{{Op: isa.OpBeq, Targ: 99}}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate() accepted out-of-range target")
	}
	noHalt := &Program{Name: "x", Code: []isa.Inst{{Op: isa.OpNop}}}
	if err := noHalt.Validate(); err == nil {
		t.Error("Validate() accepted program without halt")
	}
	empty := &Program{Name: "x"}
	if err := empty.Validate(); err == nil {
		t.Error("Validate() accepted empty program")
	}
}

// TestValidateRegisterRange: a register operand at 64 or above names
// no register, so Build refuses it in every register operand of every
// opcode, and accepts 63 (f31) there. The static verifier indexes
// 64-entry per-register tables with these operands.
func TestValidateRegisterRange(t *testing.T) {
	for op := isa.Op(0); op.Valid(); op++ {
		for _, x := range op.Operands() {
			if x.File == isa.NoRegFile {
				continue
			}
			for _, r := range []isa.Reg{63, 64, 70, 255} {
				in := isa.Inst{Op: op}
				switch x.Field {
				case isa.FieldRd:
					in.Rd = r
				case isa.FieldRs2:
					in.Rs2 = r
				default:
					in.Rs1 = r
				}
				b := NewBuilder("regs")
				b.Emit(in)
				b.Halt()
				_, err := b.Build()
				if r < 64 && err != nil {
					t.Errorf("%s with register %d in field %d: %v", op, r, x.Field, err)
				}
				if r >= 64 && (err == nil || !strings.Contains(err.Error(), "out of range")) {
					t.Errorf("%s with register %d in field %d: err %v, want out of range", op, r, x.Field, err)
				}
			}
		}
	}
}

func TestBasicBlocks(t *testing.T) {
	p := simpleLoopProgram(t)
	blocks := p.BasicBlocks()
	// Expected blocks: [0,1) init, [1,4) loop body incl branch, [4,5) halt.
	if len(blocks) != 3 {
		t.Fatalf("blocks = %v, want 3", blocks)
	}
	if blocks[0].Start != 0 || blocks[0].End != 1 {
		t.Errorf("block0 = %+v", blocks[0])
	}
	if blocks[1].Start != 1 || blocks[1].End != 4 {
		t.Errorf("block1 = %+v", blocks[1])
	}
	if p.BlockOf(2) != 1 {
		t.Errorf("BlockOf(2) = %d, want 1", p.BlockOf(2))
	}
	// Every instruction maps into exactly its containing block.
	for pc := int64(0); pc < int64(len(p.Code)); pc++ {
		b := blocks[p.BlockOf(pc)]
		if pc < b.Start || pc >= b.End {
			t.Errorf("BlockOf(%d) = block [%d,%d)", pc, b.Start, b.End)
		}
	}
}

func TestBlockInvariants(t *testing.T) {
	p := simpleLoopProgram(t)
	blocks := p.BasicBlocks()
	var total int64
	prevEnd := int64(0)
	for _, b := range blocks {
		if b.Start != prevEnd {
			t.Errorf("block %d starts at %d, want %d (contiguity)", b.ID, b.Start, prevEnd)
		}
		if b.Len() <= 0 {
			t.Errorf("block %d empty", b.ID)
		}
		total += b.Len()
		prevEnd = b.End
	}
	if total != int64(len(p.Code)) {
		t.Errorf("blocks cover %d instructions, program has %d", total, len(p.Code))
	}
}

func TestDisassembleContainsLabels(t *testing.T) {
	p := simpleLoopProgram(t)
	dis := p.Disassemble()
	if !strings.Contains(dis, "loop:") {
		t.Errorf("Disassemble missing label:\n%s", dis)
	}
	if !strings.Contains(dis, "bne r1, r0, 1") {
		t.Errorf("Disassemble missing branch:\n%s", dis)
	}
}

func TestLiSmallAndLarge(t *testing.T) {
	b := NewBuilder("li")
	b.Li(1, 42)
	b.Li(2, 1<<40|12345)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Small immediate: single addi. Large: addi+shli+ori.
	if p.Code[0].Op != isa.OpAddi || p.Code[0].Imm != 42 {
		t.Errorf("small Li emitted %v", p.Code[0])
	}
	if len(p.Code) != 1+3+1 {
		t.Errorf("program length %d, want 5", len(p.Code))
	}
}

func TestReserveData(t *testing.T) {
	b := NewBuilder("data")
	b.ReserveData(100)
	b.ReserveData(50) // no shrink
	b.Halt()
	p := b.MustBuild()
	if p.DataSize != 100 {
		t.Errorf("DataSize = %d, want 100", p.DataSize)
	}
}
