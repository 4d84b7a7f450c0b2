package cpu

// FuzzSchedulerVsReference is the differential fuzz target of the
// event-driven scheduler: arbitrary bytes become a machine shape and a
// short program (including invalid opcodes, cross-namespace register
// names, and wild branch and jump targets), and a chain of bounded
// windows must match the rescanning reference in sched_ref_test.go
// window by window — results, pipeline counters, warm state, and any
// emulator error. Bytes past the last whole instruction set a warming
// run before the windows, Warm on one side and the reference warming
// loop (warm_ref_test.go) on the other.

import (
	"encoding/binary"
	"fmt"
	"testing"

	"mlpa/internal/emu"
	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// fuzzProgram decodes data into a program, 8 bytes per instruction:
//
//	b0      opcode, modulo NumOps+2 so invalid opcodes appear
//	b1..b3  rd, rs1, rs2 across the full 64-name register space
//	b4,b5   16-bit signed immediate
//	b6      branch/jump target: in-range when b7 is even, raw
//	        (possibly negative or past the end) when odd
//
// Returns nil when data is too short for even one instruction. Trailing
// bytes short of a whole instruction are ignored here; see fuzzWarm.
func fuzzProgram(data []byte) *prog.Program {
	n := len(data) / 8
	if n == 0 {
		return nil
	}
	code := make([]isa.Inst, n)
	for i := 0; i < n; i++ {
		b := data[i*8 : i*8+8]
		targ := int64(int8(b[6]))
		if b[7]&1 == 0 {
			targ = ((targ % int64(n)) + int64(n)) % int64(n)
		}
		code[i] = isa.Inst{
			Op:   isa.Op(b[0] % uint8(isa.NumOps+2)),
			Rd:   isa.Reg(b[1] & 63),
			Rs1:  isa.Reg(b[2] & 63),
			Rs2:  isa.Reg(b[3] & 63),
			Imm:  int64(int16(binary.LittleEndian.Uint16(b[4:6]))),
			Targ: targ,
		}
	}
	return &prog.Program{Name: "fuzz", Code: code}
}

// fuzzWarm is the warming count for a fuzz program decoded from code:
// the first two bytes past its last whole instruction, little-endian,
// or zero when code is whole instructions.
func fuzzWarm(code []byte) uint64 {
	tail := code[len(code)/8*8:]
	var b [2]byte
	copy(b[:], tail)
	return uint64(binary.LittleEndian.Uint16(b[:]))
}

// fuzzSchedConfig derives a machine from two knob bytes: ROB size (not
// always a multiple of 64), LSQ size, issue width and scheduler window,
// predictor kind and BHT entries, all over forkConfig's small caches so
// misses and evictions are frequent.
func fuzzSchedConfig(k0, k1 byte) Config {
	cfg := forkConfig(forkKinds[int(k1)%len(forkKinds)], forkBHTEntries[int(k1>>3)%len(forkBHTEntries)])
	cfg.ROBSize = []int{2, 3, 8, 37, 64, 100, 128, 300}[k0&7]
	cfg.LSQSize = max(1, cfg.ROBSize>>(k0>>3&3))
	width := [][2]int{{8, 32}, {8, 8}, {2, 2}, {1, 1}}[k0>>5&3]
	cfg.IssueWidth, cfg.SchedWindow = width[0], width[1]
	cfg.MispredictPenalty = int(k0 >> 7 * 3)
	return cfg
}

func FuzzSchedulerVsReference(f *testing.F) {
	inst := func(op isa.Op, rd, rs1, rs2 isa.Reg, imm int16, targ int8) []byte {
		b := []byte{byte(op), byte(rd), byte(rs1), byte(rs2), 0, 0, byte(targ), 0}
		binary.LittleEndian.PutUint16(b[4:6], uint16(imm))
		return b
	}
	seed := func(k0, k1 byte, insts ...[]byte) []byte {
		out := []byte{k0, k1}
		for _, in := range insts {
			out = append(out, in...)
		}
		return out
	}
	loop := [][]byte{
		inst(isa.OpAddi, 1, 0, 0, 300, 0),
		inst(isa.OpMul, 2, 2, 1, 0, 0),
		inst(isa.OpAddi, 1, 1, 0, -1, 0),
		inst(isa.OpBne, 0, 1, 0, 0, 1),
		inst(isa.OpHalt, 0, 0, 0, 0, 0),
	}
	mem := [][]byte{
		inst(isa.OpAddi, 1, 0, 0, 200, 0),
		inst(isa.OpSt, 0, 3, 1, 8, 0),
		inst(isa.OpLd, 2, 3, 0, 8, 0),
		inst(isa.OpAdd, 3, 2, 2, 0, 0),
		inst(isa.OpAddi, 1, 1, 0, -1, 0),
		inst(isa.OpBne, 0, 1, 0, 0, 1),
		inst(isa.OpHalt, 0, 0, 0, 0, 0),
	}
	wild := [][]byte{
		inst(isa.OpAddi, 1, 0, 0, 999, 0),
		inst(isa.OpJr, 0, 1, 0, 0, 0),
		inst(isa.OpHalt, 0, 0, 0, 0, 0),
	}
	// A counting loop over a multiply chain; stores and loads to one
	// block (forwarding and ordering) on a narrow machine; an FP chain
	// with a divide on a tiny ROB; a wild jr; and a wild jr behind a
	// missing load that keeps a one-entry LSQ full (three-entry ROB),
	// so fetch peeks at the wild PC. None warms. Between them the knob
	// bytes 0, 9, 1 and 10 put seeds on all four forkConfig cells.
	f.Add(seed(0, 0, loop...))
	f.Add(seed(0x66, 9, mem...))
	f.Add(seed(0xa1, 20,
		inst(isa.OpAddi, 1, 0, 0, 3, 0),
		inst(isa.OpCvtIF, isa.F(1), 1, 0, 0, 0),
		inst(isa.OpFdiv, isa.F(2), isa.F(1), isa.F(1), 0, 0),
		inst(isa.OpFmul, isa.F(3), isa.F(2), isa.F(1), 0, 0),
		inst(isa.OpFadd, isa.F(1), isa.F(3), isa.F(2), 0, 0),
		inst(isa.OpBeq, 0, 0, 0, 0, 1),
		inst(isa.OpHalt, 0, 0, 0, 0, 0)))
	f.Add(seed(3, 1, wild...))
	f.Add(seed(0x19, 10,
		inst(isa.OpAddi, 1, 0, 0, 999, 0),
		inst(isa.OpLd, 5, 0, 0, 8, 0),
		inst(isa.OpJr, 0, 1, 0, 0, 0),
		inst(isa.OpHalt, 0, 0, 0, 0, 0)))
	// Warming before the windows: the loop warmed to mid-block; the
	// store/load loop warmed with its data side; the wild jr warmed
	// past the addi, then past the jump, so the windows meet the wild
	// PC, then one step further, so warming reports the error; and a
	// short count-down warmed past its halt.
	f.Add(seed(0, 0, append(loop, []byte{150})...))
	f.Add(seed(0x66, 9, append(mem, []byte{44, 1})...))
	for n := byte(1); n <= 3; n++ {
		f.Add(seed(3, 1, append(wild, []byte{n})...))
	}
	f.Add(seed(0, 4,
		inst(isa.OpAddi, 1, 0, 0, 2, 0),
		inst(isa.OpAddi, 1, 1, 0, -1, 0),
		inst(isa.OpBne, 0, 1, 0, 0, 1),
		inst(isa.OpHalt, 0, 0, 0, 0, 0),
		[]byte{9}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		p := fuzzProgram(data[2:])
		if p == nil {
			return
		}
		// A bounded schedule: never run to halt, since fuzz programs
		// may loop forever. Windows chain on one context, with and
		// without lead-in and run-ahead.
		k := uint64(data[1])
		windows := [][3]uint64{{0, k%97 + 1, 0}, {k % 13, 200, k % 31}, {64, 4096, 64}}
		c := newSchedPair(t, MustNew(fuzzSchedConfig(data[0], data[1])), emu.New(p, 1<<8))
		// Warm first when the data asks for it: Warm on the Sim, the
		// reference warming loop on the reference's caches and branch
		// unit.
		if warm := fuzzWarm(data[2:]); warm > 0 {
			ref := &Sim{hier: c.ref.hier, bu: c.ref.bu, lastFetchBlock: c.ref.lastFetchBlock}
			gerr, werr := c.sim.Warm(c.m, warm), ref.refWarm(c.rm, warm, true)
			c.ref.lastFetchBlock = ref.lastFetchBlock
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("warm %d: error %v, reference %v", warm, gerr, werr)
			}
			if !sameWarmState(c.sim, ref) {
				t.Fatalf("warm %d: caches, branch unit or fetch block differ from the reference's", warm)
			}
			if diff := sameMachine(c.m, c.rm); diff != "" {
				t.Fatalf("warm %d: machine %s", warm, diff)
			}
			if gerr != nil {
				return
			}
		}
		for _, w := range windows {
			diff, done := c.step(w[0], w[1], w[2])
			if diff != "" {
				t.Fatal(diff)
			}
			if done {
				return
			}
		}
	})
}

// TestRunWildJumpErrors: a jump out of the program is the emulator's
// error, never an index panic in the fetch stage's LSQ peek. The
// missing load keeps the one-entry LSQ full when fetch reaches the wild
// PC, so the peek runs there.
func TestRunWildJumpErrors(t *testing.T) {
	p, err := prog.Assemble("wild", `
    addi r1, r0, 999
    ld   r5, 4096(r0)
    jr   r1
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.LSQSize = 1
	_, err = MustNew(cfg).Run(emu.New(p, 0), 0)
	if err == nil {
		t.Fatal("jump to PC 999 ran without error")
	}
}
