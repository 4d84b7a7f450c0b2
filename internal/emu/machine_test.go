package emu

import (
	"context"
	"strings"
	"testing"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

func buildLoop(t *testing.T, trips int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("loop")
	b.Li(1, trips)
	b.Label("head")
	b.Addi(2, 2, 1)
	b.Addi(1, 1, -1)
	b.Bne(1, isa.RZero, "head")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunCountingLoop(t *testing.T) {
	p := buildLoop(t, 10)
	m := New(p, 0)
	n, err := m.RunToCompletion(1e6)
	if err != nil {
		t.Fatal(err)
	}
	if m.IntRegs[2] != 10 {
		t.Errorf("r2 = %d, want 10", m.IntRegs[2])
	}
	// 1 init + 10*(3 body) + 1 halt
	want := uint64(1 + 30 + 1)
	if n != want || m.Insts != want {
		t.Errorf("executed %d (Insts=%d), want %d", n, m.Insts, want)
	}
	if !m.Halted {
		t.Error("machine not halted")
	}
}

func TestStepInfoBranch(t *testing.T) {
	p := buildLoop(t, 2)
	m := New(p, 0)
	// init
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	// body x2
	for i := 0; i < 2; i++ {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	info, err := m.Step() // bne taken (r1 == 1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Taken || info.NextPC != p.Labels["head"] {
		t.Errorf("branch info = %+v", info)
	}
}

func TestArithmeticOps(t *testing.T) {
	src := `
    addi r1, r0, 7
    addi r2, r0, 3
    add  r3, r1, r2
    sub  r4, r1, r2
    mul  r5, r1, r2
    div  r6, r1, r2
    rem  r7, r1, r2
    and  r8, r1, r2
    or   r9, r1, r2
    xor  r10, r1, r2
    slt  r11, r2, r1
    slti r12, r1, 100
    shli r13, r1, 2
    shri r14, r13, 1
    lui  r15, 2
    halt
`
	p, err := prog.Assemble("arith", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, 0)
	if _, err := m.RunToCompletion(1000); err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{
		3: 10, 4: 4, 5: 21, 6: 2, 7: 1,
		8: 3, 9: 7, 10: 4, 11: 1, 12: 1,
		13: 28, 14: 14, 15: 2 << 16,
	}
	for r, v := range want {
		if m.IntRegs[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.IntRegs[r], v)
		}
	}
}

func TestDivRemByZero(t *testing.T) {
	src := `
    addi r1, r0, 5
    div  r2, r1, r0
    rem  r3, r1, r0
    halt
`
	p, err := prog.Assemble("divzero", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, 0)
	if _, err := m.RunToCompletion(100); err != nil {
		t.Fatal(err)
	}
	if m.IntRegs[2] != 0 || m.IntRegs[3] != 0 {
		t.Errorf("div/rem by zero = %d, %d; want 0, 0", m.IntRegs[2], m.IntRegs[3])
	}
}

func TestFloatingPoint(t *testing.T) {
	src := `
    addi r1, r0, 3
    cvtif f1, r1
    fadd f2, f1, f1
    fmul f3, f2, f1
    fsub f4, f3, f1
    fdiv f5, f3, f2
    fneg f6, f5
    fmov f7, f6
    fcmplt r2, f1, f2
    fcmpeq r3, f6, f7
    cvtfi r4, f3
    halt
`
	p, err := prog.Assemble("fp", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, 0)
	if _, err := m.RunToCompletion(100); err != nil {
		t.Fatal(err)
	}
	if m.FPRegs[2] != 6 || m.FPRegs[3] != 18 || m.FPRegs[4] != 15 {
		t.Errorf("f2,f3,f4 = %v,%v,%v", m.FPRegs[2], m.FPRegs[3], m.FPRegs[4])
	}
	if m.FPRegs[5] != 3 || m.FPRegs[6] != -3 || m.FPRegs[7] != -3 {
		t.Errorf("f5,f6,f7 = %v,%v,%v", m.FPRegs[5], m.FPRegs[6], m.FPRegs[7])
	}
	if m.IntRegs[2] != 1 || m.IntRegs[3] != 1 || m.IntRegs[4] != 18 {
		t.Errorf("r2,r3,r4 = %d,%d,%d", m.IntRegs[2], m.IntRegs[3], m.IntRegs[4])
	}
}

func TestMemoryLoadStore(t *testing.T) {
	src := `
    addi r1, r0, 64
    addi r2, r0, 99
    st   r2, 8(r1)
    ld   r3, 8(r1)
    cvtif f1, r2
    fst  f1, 16(r1)
    fld  f2, 16(r1)
    halt
`
	p, err := prog.Assemble("mem", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, 0)
	if _, err := m.RunToCompletion(100); err != nil {
		t.Fatal(err)
	}
	if m.IntRegs[3] != 99 {
		t.Errorf("r3 = %d, want 99", m.IntRegs[3])
	}
	if m.FPRegs[2] != 99 {
		t.Errorf("f2 = %v, want 99", m.FPRegs[2])
	}
	if m.LoadWord(64+8) != 99 {
		t.Errorf("mem[72] = %d", m.LoadWord(72))
	}
}

func TestMemoryWraps(t *testing.T) {
	b := prog.NewBuilder("wrap")
	b.Li(1, 1<<40) // address far beyond physical memory
	b.Addi(2, isa.RZero, 7)
	b.St(2, 1, 0)
	b.Ld(3, 1, 0)
	b.Halt()
	m := New(b.MustBuild(), 1024)
	if _, err := m.RunToCompletion(100); err != nil {
		t.Fatal(err)
	}
	if m.IntRegs[3] != 7 {
		t.Errorf("wrapped load = %d, want 7", m.IntRegs[3])
	}
}

func TestJalJr(t *testing.T) {
	src := `
    jal r31, func
    addi r1, r1, 100
    halt
func:
    addi r1, r1, 1
    jr r31
`
	p, err := prog.Assemble("call", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, 0)
	if _, err := m.RunToCompletion(100); err != nil {
		t.Fatal(err)
	}
	if m.IntRegs[1] != 101 {
		t.Errorf("r1 = %d, want 101", m.IntRegs[1])
	}
}

func TestWritesToR0Discarded(t *testing.T) {
	src := `
    addi r0, r0, 42
    add  r1, r0, r0
    halt
`
	p, err := prog.Assemble("r0", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, 0)
	if _, err := m.RunToCompletion(100); err != nil {
		t.Fatal(err)
	}
	if m.IntRegs[0] != 0 || m.IntRegs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d; want 0, 0", m.IntRegs[0], m.IntRegs[1])
	}
}

// TestCrossNamespaceWritesDiscarded pins the int/FP write-discard
// symmetry: an integer-writing opcode with an FP-named destination and
// an FP-writing opcode with an integer-named destination must both be
// dropped rather than aliasing into the other file.
func TestCrossNamespaceWritesDiscarded(t *testing.T) {
	p := &prog.Program{Name: "xns", Code: []isa.Inst{
		{Op: isa.OpAddi, Rd: isa.F(4), Rs1: isa.RZero, Imm: 42}, // int write, FP name
		{Op: isa.OpCvtIF, Rd: isa.F(5), Rs1: isa.RZero},         // f5 = 0.0
		{Op: isa.OpFadd, Rd: 6, Rs1: isa.F(5), Rs2: isa.F(5)},   // FP write, int name
		{Op: isa.OpHalt},
	}}
	for _, engine := range []string{"run", "step"} {
		m := New(p, 0)
		var err error
		if engine == "run" {
			_, err = m.Run(100)
		} else {
			for !m.Halted && err == nil {
				_, err = m.Step()
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if m.FPRegs[4] != 0 {
			t.Errorf("%s: integer write leaked into f4 = %v", engine, m.FPRegs[4])
		}
		if m.IntRegs[6] != 0 {
			t.Errorf("%s: FP write leaked into r6 = %d", engine, m.IntRegs[6])
		}
		if m.FPRegs[6] != 0 {
			t.Errorf("%s: fadd to integer name landed in f6 = %v", engine, m.FPRegs[6])
		}
	}
}

func TestBlockCountsSumToInsts(t *testing.T) {
	p := buildLoop(t, 25)
	m := New(p, 0)
	if _, err := m.RunToCompletion(1e6); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, c := range m.BlockCounts {
		sum += c
	}
	if sum != m.Insts {
		t.Errorf("sum(BlockCounts) = %d, Insts = %d", sum, m.Insts)
	}
}

func TestBlockCountsResetAndSnapshot(t *testing.T) {
	p := buildLoop(t, 5)
	m := New(p, 0)
	if _, err := m.Run(3); err != nil {
		t.Fatal(err)
	}
	snap := m.SnapshotBlockCounts()
	m.ResetBlockCounts()
	for i, c := range m.BlockCounts {
		if c != 0 {
			t.Errorf("BlockCounts[%d] = %d after reset", i, c)
		}
	}
	var sum uint64
	for _, c := range snap {
		sum += c
	}
	if sum != 3 {
		t.Errorf("snapshot sum = %d, want 3", sum)
	}
}

func TestStepAfterHalt(t *testing.T) {
	p := buildLoop(t, 1)
	m := New(p, 0)
	if _, err := m.RunToCompletion(1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Error("Step after halt succeeded")
	}
}

func TestRunToCompletionBound(t *testing.T) {
	// Infinite loop must trip the bound.
	src := "x:\njmp x\nhalt"
	p, err := prog.Assemble("inf", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, 0)
	if _, err := m.RunToCompletion(1000); err == nil {
		t.Error("RunToCompletion on infinite loop succeeded")
	}
}

// TestRunTo pins the fast-forward loop every scratch machine is
// positioned with: it lands exactly on pos (also across its 2^20-
// instruction slices), leaves a machine at or past pos untouched,
// reports a program that halts first, and returns ctx.Err() before
// running anything under a cancelled context.
func TestRunTo(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// buildLoop(t, n) retires 3n+2 instructions before it halts.
	cases := []struct {
		name      string
		trips     int64
		pre, pos  uint64 // instructions run before RunTo, target
		ctx       context.Context
		wantDone  uint64
		wantInsts uint64
		wantErr   string
	}{
		{name: "lands on pos", trips: 1000, pos: 1234, wantDone: 1234, wantInsts: 1234},
		{name: "across slices", trips: runToSlice, pos: runToSlice + 5, wantDone: runToSlice + 5, wantInsts: runToSlice + 5},
		{name: "from a later start", trips: 1000, pre: 100, pos: 1234, wantDone: 1134, wantInsts: 1234},
		{name: "at pos", trips: 1000, pre: 100, pos: 100, wantInsts: 100},
		{name: "past pos", trips: 1000, pre: 100, pos: 50, wantInsts: 100},
		{name: "halts first", trips: 10, pos: 100, wantDone: 32, wantInsts: 32, wantErr: "halted"},
		{name: "cancelled", trips: 1000, pos: 100, ctx: cancelled, wantErr: context.Canceled.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := buildLoop(t, tc.trips)
			m := New(p, 0)
			if tc.pre > 0 {
				if _, err := m.Run(tc.pre); err != nil {
					t.Fatal(err)
				}
			}
			pc, regs := m.PC, m.IntRegs
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			done, err := m.RunTo(ctx, tc.pos)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("err = %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			case tc.ctx != nil && err != tc.ctx.Err():
				t.Fatalf("err = %v, want ctx.Err() itself", err)
			}
			if done != tc.wantDone || m.Insts != tc.wantInsts {
				t.Errorf("executed %d, now at %d; want %d, at %d", done, m.Insts, tc.wantDone, tc.wantInsts)
			}
			if done == 0 && (m.PC != pc || m.IntRegs != regs) {
				t.Error("a RunTo that executed nothing changed the machine")
			}
			if tc.wantErr == "" {
				want := New(p, 0)
				if _, err := want.Run(max(tc.pre, tc.pos)); err != nil {
					t.Fatal(err)
				}
				if m.PC != want.PC || m.IntRegs != want.IntRegs {
					t.Errorf("state at %d differs from a plain Run", m.Insts)
				}
			}
		})
	}
}

func TestReset(t *testing.T) {
	p := buildLoop(t, 5)
	m := New(p, 0)
	if _, err := m.RunToCompletion(1e6); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.Insts != 0 || m.PC != 0 || m.Halted || m.IntRegs[2] != 0 {
		t.Error("Reset did not clear state")
	}
	if _, err := m.RunToCompletion(1e6); err != nil {
		t.Fatal(err)
	}
	if m.IntRegs[2] != 5 {
		t.Errorf("after reset rerun r2 = %d, want 5", m.IntRegs[2])
	}
}

func TestBranchHookFires(t *testing.T) {
	p := buildLoop(t, 4)
	m := New(p, 0)
	var taken int
	m.Branch = func(from, to int64) {
		if to > from {
			t.Errorf("loop program produced forward taken transfer %d->%d", from, to)
		}
		taken++
	}
	if _, err := m.RunToCompletion(1e6); err != nil {
		t.Fatal(err)
	}
	if taken != 3 { // bne taken 3 times for 4 trips
		t.Errorf("taken branches = %d, want 3", taken)
	}
}

func TestDeterminism(t *testing.T) {
	p := buildLoop(t, 100)
	run := func() ([]uint64, uint64) {
		m := New(p, 0)
		if _, err := m.RunToCompletion(1e6); err != nil {
			t.Fatal(err)
		}
		return m.SnapshotBlockCounts(), m.Insts
	}
	c1, n1 := run()
	c2, n2 := run()
	if n1 != n2 {
		t.Fatalf("instruction counts differ: %d != %d", n1, n2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("block %d: %d != %d", i, c1[i], c2[i])
		}
	}
}

func TestClone(t *testing.T) {
	p := buildLoop(t, 50)
	m := New(p, 0)
	if _, err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	m.StoreWord(128, 77)
	c := m.Clone()
	if c.PC != m.PC || c.Insts != m.Insts || c.IntRegs != m.IntRegs {
		t.Fatal("clone state differs")
	}
	if c.LoadWord(128) != 77 {
		t.Error("clone memory differs")
	}
	// Diverge the clone; original must be unaffected.
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	c.StoreWord(128, 99)
	if m.LoadWord(128) != 77 {
		t.Error("clone write leaked into original")
	}
	if m.Insts == c.Insts {
		t.Error("original advanced with clone")
	}
	// Both finish identically from their own states.
	if _, err := m.RunToCompletion(1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunToCompletion(1e6); err != nil {
		t.Fatal(err)
	}
	if m.IntRegs[2] != c.IntRegs[2] {
		t.Errorf("divergent results: %d vs %d", m.IntRegs[2], c.IntRegs[2])
	}
}
