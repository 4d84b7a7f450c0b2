package cpu

// Differential tests of functional warming: Warm, WarmCode and
// WarmMeasured read each instruction's opcode and class from the
// per-program attribute table (attrs.go) and must leave exactly the
// warm state, results and machine state of the warming loop they
// replaced, kept below as the reference.

import (
	"fmt"
	"math"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/bpred"
	"mlpa/internal/cache"
	"mlpa/internal/emu"
	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// --- Frozen reference implementation (isa.Op predicates per step) ---

// refWarmRun is the warming loop before the attribute table: it drives
// Step and decodes each instruction's opcode with the isa.Op
// predicates. The one change from the frozen loop: StepInfo no longer
// carries the instruction, so the opcode is read from the program.
func (s *Sim) refWarmRun(m *emu.Machine, insts uint64, data bool) error {
	for i := uint64(0); i < insts && !m.Halted; i++ {
		info, err := m.Step()
		if err != nil {
			return fmt.Errorf("cpu: warm step: %w", err)
		}
		blk := (info.PC * isa.InstBytes) & blockMask
		if blk != s.lastFetchBlock {
			s.hier.IL1.Access(info.PC*isa.InstBytes, false)
			s.lastFetchBlock = blk
		}
		op := m.Prog.Code[info.PC].Op
		if data && op.IsMem() {
			s.hier.DL1.Access(info.MemAddr&blockMask, op.IsStore())
		}
		if op.IsBranch() {
			switch op {
			case isa.OpJal:
				s.bu.PredictCall(info.PC, info.NextPC, info.PC+1)
			case isa.OpJr:
				s.bu.PredictReturn(info.PC, info.NextPC)
			case isa.OpJmp:
				s.bu.PredictJump(info.PC, info.NextPC)
			default:
				s.bu.PredictCond(info.PC, info.Taken, info.NextPC)
			}
		}
	}
	return nil
}

// refWarm is Warm (data true) and WarmCode (data false) over refWarmRun.
func (s *Sim) refWarm(m *emu.Machine, insts uint64, data bool) error {
	if err := s.refWarmRun(m, insts, data); err != nil {
		return err
	}
	s.hier.IL1.ResetStats()
	s.hier.DL1.ResetStats()
	s.hier.L2.ResetStats()
	s.bu.ResetStats()
	return nil
}

// refWarmMeasured is WarmMeasured over refWarmRun.
func (s *Sim) refWarmMeasured(m *emu.Machine, insts uint64) (Result, error) {
	before := s.snap()
	startInsts := m.Insts
	if err := s.refWarmRun(m, insts, true); err != nil {
		return Result{}, err
	}
	after := s.snap()
	res := Result{
		Insts: m.Insts - startInsts,
		IL1:   diffStats(after.il1, before.il1),
		DL1:   diffStats(after.dl1, before.dl1),
		L2:    diffStats(after.l2, before.l2),
		Branch: bpred.Stats{
			Lookups:      after.branch.Lookups - before.branch.Lookups,
			DirMisses:    after.branch.DirMisses - before.branch.DirMisses,
			TargetMisses: after.branch.TargetMisses - before.branch.TargetMisses,
		},
	}
	res.L1 = cache.Stats{
		Accesses:   res.IL1.Accesses + res.DL1.Accesses,
		Misses:     res.IL1.Misses + res.DL1.Misses,
		Writebacks: res.IL1.Writebacks + res.DL1.Writebacks,
	}
	return res, nil
}

// --- Differential harness ---

// warmBudgets is the warming schedule: budgets ending mid-block, a few
// long ones, one past halt, and calls on the halted machine.
var warmBudgets = []uint64{1, 2, 3, 5, 8, 13, 1000, 4097, 65537, 1 << 20, math.MaxUint64, 7, 7, 7}

// sameMachine reports the first difference between two machines'
// architectural state (registers bit for bit, PC, Insts, Halted,
// BlockCounts, written pages and their words), or "".
func sameMachine(a, b *emu.Machine) string {
	if a.PC != b.PC || a.Insts != b.Insts || a.Halted != b.Halted {
		return fmt.Sprintf("PC/Insts/Halted %d/%d/%v, reference %d/%d/%v", a.PC, a.Insts, a.Halted, b.PC, b.Insts, b.Halted)
	}
	if a.IntRegs != b.IntRegs {
		return fmt.Sprintf("IntRegs %v, reference %v", a.IntRegs, b.IntRegs)
	}
	for i := range a.FPRegs {
		if math.Float64bits(a.FPRegs[i]) != math.Float64bits(b.FPRegs[i]) {
			return fmt.Sprintf("FPRegs[%d] %v, reference %v", i, a.FPRegs[i], b.FPRegs[i])
		}
	}
	for i := range a.BlockCounts {
		if a.BlockCounts[i] != b.BlockCounts[i] {
			return fmt.Sprintf("BlockCounts[%d] %d, reference %d", i, a.BlockCounts[i], b.BlockCounts[i])
		}
	}
	pa, pb := a.DirtyPages(), b.DirtyPages()
	if fmt.Sprint(pa) != fmt.Sprint(pb) {
		return fmt.Sprintf("written pages %v, reference %v", pa, pb)
	}
	for _, pi := range pa {
		for w := int64(0); w < emu.PageWords; w++ {
			addr := (pi*emu.PageWords + w) * 8
			if x, y := a.LoadWord(addr), b.LoadWord(addr); x != y {
				return fmt.Sprintf("word at %#x %#x, reference %#x", addr, x, y)
			}
		}
	}
	return ""
}

// warmAgainstReference runs warmBudgets through Warm, WarmCode and
// WarmMeasured in rotation (starting at mode offset) on a new context
// and machine, and the same calls through the reference on another
// pair, comparing errors, WarmMeasured results, warm state and machine
// state after every call.
func warmAgainstReference(t *testing.T, p *prog.Program, cfg Config, offset int) {
	t.Helper()
	got, want := MustNew(cfg), MustNew(cfg)
	gm, wm := emu.New(p, 0), emu.New(p, 0)
	modes := [...]string{"Warm", "WarmCode", "WarmMeasured"}
	for i, n := range warmBudgets {
		mode := modes[(i+offset)%len(modes)]
		var gr, wr Result
		var gerr, werr error
		switch mode {
		case "Warm":
			gerr, werr = got.Warm(gm, n), want.refWarm(wm, n, true)
		case "WarmCode":
			gerr, werr = got.WarmCode(gm, n), want.refWarm(wm, n, false)
		default:
			gr, gerr = got.WarmMeasured(gm, n)
			wr, werr = want.refWarmMeasured(wm, n)
		}
		where := fmt.Sprintf("call %d (%s %d) at instruction %d", i, mode, n, wm.Insts)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, reference %v", where, gerr, werr)
		}
		if gr != wr {
			t.Fatalf("%s: result %+v, reference %+v", where, gr, wr)
		}
		if !sameWarmState(got, want) {
			t.Fatalf("%s: caches, branch unit or fetch block differ from the reference's", where)
		}
		if diff := sameMachine(gm, wm); diff != "" {
			t.Fatalf("%s: machine %s", where, diff)
		}
		if gerr != nil {
			return
		}
	}
	if !gm.Halted {
		t.Fatalf("%s: the schedule did not run past halt", p.Name)
	}
}

// TestWarmMatchesReference: over every tiny suite program under
// configurations A and B, and the fork test program under every
// predictor kind and replacement policy, Warm, WarmCode and
// WarmMeasured match the reference warming loop call by call. Under
// the race detector the suite leg covers schedRaceSubset only.
func TestWarmMatchesReference(t *testing.T) {
	t.Run("suite", func(t *testing.T) {
		for _, spec := range bench.Suite() {
			if raceEnabled && !schedRaceSubset[spec.Name] {
				continue
			}
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				p := spec.MustProgram(bench.SizeTiny)
				for i, cfg := range []Config{testConfig(), testConfigB()} {
					warmAgainstReference(t, p, cfg, i)
				}
			})
		}
	})
	t.Run("predictors", func(t *testing.T) {
		i := 0
		forEachForkConfig(t, func(t *testing.T, p *prog.Program, cfg Config) {
			warmAgainstReference(t, p, cfg, i)
			i++
		})
	})
}
