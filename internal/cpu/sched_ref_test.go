package cpu

// Differential tests of the event-driven scheduler — the idle-cycle
// skip and the wake-up lists — which must be invisible: identical
// results, cycle counts, occupancy sums, flush counts and warm state,
// window by window, compared to the per-cycle rescanning loop preserved
// below.

import (
	"fmt"
	"strings"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/bpred"
	"mlpa/internal/cache"
	"mlpa/internal/emu"
	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// --- Frozen reference implementation (scheduler rescan every cycle) ---

// refEntry is the reference's in-flight instruction, dependencies
// inline.
type refEntry struct {
	seq     uint64
	class   isa.Class
	latency int

	dep     [2]int32
	depSeq  [2]uint64
	numDeps int8

	issued  bool
	doneAt  uint64
	isLoad  bool
	isStore bool
	hasDst  bool
	dst     isa.Reg
	addr    int64

	mispredict bool
}

// refSim is the reference's detailed context. Its caches and branch
// unit are the production types; only the pipeline differs.
type refSim struct {
	cfg  Config
	hier *cache.Hierarchy
	bu   *bpred.Unit

	rob      []refEntry
	robHead  int
	robTail  int
	robCount int

	pending []int32

	memq     []int32
	memqHead int
	lsqCount int

	regProducer [64]int32
	regSeq      [64]uint64

	cycle   uint64
	nextSeq uint64

	robOccSum uint64
	lsqOccSum uint64
	flushes   uint64

	fetchReadyAt   uint64
	fetchBlockSeq  uint64
	lastFetchBlock int64

	committed uint64
}

// newRefSim returns a reference context with an empty pipeline and a
// copy of s's configuration and warm state (caches, branch unit and
// fetch-block register).
func newRefSim(t testing.TB, s *Sim) *refSim {
	t.Helper()
	f, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	r := &refSim{
		cfg:            s.cfg,
		hier:           f.hier,
		bu:             f.bu,
		rob:            make([]refEntry, s.cfg.ROBSize),
		lastFetchBlock: s.lastFetchBlock,
		nextSeq:        1,
	}
	for i := range r.regProducer {
		r.regProducer[i] = -1
	}
	return r
}

func (s *refSim) snap() snapshot {
	return snapshot{
		cycles: s.cycle,
		insts:  s.committed,
		il1:    s.hier.IL1.Stats(),
		dl1:    s.hier.DL1.Stats(),
		l2:     s.hier.L2.Stats(),
		branch: s.bu.Stats(),
	}
}

// refRunWindow is Sim.RunWindow as it was before the event-driven
// scheduler, without the Metrics reporting.
func refRunWindow(s *refSim, m *emu.Machine, lead, maxInsts, tail uint64) (Result, error) {
	startInsts := s.committed
	mid := s.snap()
	midTaken := lead == 0
	var end snapshot
	endTaken := false
	endAt := uint64(0)
	total := uint64(0)
	if maxInsts > 0 {
		endAt = lead + maxInsts
		total = lead + maxInsts + tail
	}

	fetchDone := false
	var sinceCommit uint64

	for {
		if total > 0 && s.committed-startInsts >= total {
			break
		}
		if fetchDone && s.robCount == 0 {
			break
		}
		s.cycle++
		s.robOccSum += uint64(s.robCount)
		s.lsqOccSum += uint64(s.lsqCount)

		commits := 0
		for commits < s.cfg.CommitWidth && s.robCount > 0 {
			e := &s.rob[s.robHead]
			if !e.issued || e.doneAt > s.cycle {
				break
			}
			if e.isStore {
				s.hier.DL1.Access(e.addr, true)
			}
			if e.isLoad || e.isStore {
				s.lsqCount--
				s.memqHead++
				if s.memqHead >= len(s.memq) {
					s.memq = s.memq[:0]
					s.memqHead = 0
				} else if s.memqHead > 64 && s.memqHead*2 > len(s.memq) {
					s.memq = append(s.memq[:0], s.memq[s.memqHead:]...)
					s.memqHead = 0
				}
			}
			s.retireRegs(s.robHead)
			s.robHead = (s.robHead + 1) % s.cfg.ROBSize
			s.robCount--
			s.committed++
			commits++
			if !midTaken && s.committed-startInsts == lead {
				mid = s.snap()
				midTaken = true
			}
			if !endTaken && endAt > 0 && s.committed-startInsts == endAt {
				end = s.snap()
				endTaken = true
			}
			if total > 0 && s.committed-startInsts >= total {
				break
			}
		}
		if commits > 0 {
			sinceCommit = 0
		} else {
			sinceCommit++
			if sinceCommit > watchdogLimit {
				return Result{}, fmt.Errorf("cpu: no commit in %d cycles (model deadlock) at cycle %d", watchdogLimit, s.cycle)
			}
		}

		s.issue()

		if !fetchDone {
			halted, err := s.fetch(m, total, startInsts)
			if err != nil {
				return Result{}, err
			}
			if halted {
				fetchDone = true
			}
			if total > 0 && s.fetched()-startInsts >= total {
				fetchDone = true
			}
		}
	}

	if !midTaken {
		mid = s.snap()
	}
	if !endTaken {
		end = s.snap()
	}
	res := Result{
		Insts:  end.insts - mid.insts,
		Cycles: end.cycles - mid.cycles,
		IL1:    diffStats(end.il1, mid.il1),
		DL1:    diffStats(end.dl1, mid.dl1),
		L2:     diffStats(end.l2, mid.l2),
		Branch: bpred.Stats{
			Lookups:      end.branch.Lookups - mid.branch.Lookups,
			DirMisses:    end.branch.DirMisses - mid.branch.DirMisses,
			TargetMisses: end.branch.TargetMisses - mid.branch.TargetMisses,
		},
	}
	res.L1 = cache.Stats{
		Accesses:   res.IL1.Accesses + res.DL1.Accesses,
		Misses:     res.IL1.Misses + res.DL1.Misses,
		Writebacks: res.IL1.Writebacks + res.DL1.Writebacks,
	}
	return res, nil
}

func (s *refSim) fetched() uint64 { return s.committed + uint64(s.robCount) }

func (s *refSim) retireRegs(idx int) {
	e := &s.rob[idx]
	if e.hasDst && s.regProducer[e.dst] == int32(idx) && s.regSeq[e.dst] == e.seq {
		s.regProducer[e.dst] = -1
	}
}

func (s *refSim) issue() {
	var fuUsed [isa.NumClasses]int
	issued := 0
	scanned := 0
	w := 0
	for r := 0; r < len(s.pending); r++ {
		idx := s.pending[r]
		if issued >= s.cfg.IssueWidth || scanned >= s.cfg.SchedWindow {
			w += copy(s.pending[w:], s.pending[r:])
			break
		}
		e := &s.rob[idx]
		scanned++
		if !s.tryIssue(e, int(idx), &fuUsed) {
			s.pending[w] = idx
			w++
			continue
		}
		issued++
	}
	s.pending = s.pending[:w]
}

func (s *refSim) tryIssue(e *refEntry, idx int, fuUsed *[isa.NumClasses]int) bool {
	if !s.depsReady(e) {
		return false
	}
	cl := e.class
	switch cl {
	case isa.ClassBranch, isa.ClassNop:
		cl = isa.ClassIntALU
	case isa.ClassStore:
		cl = isa.ClassLoad
	}
	if fuUsed[cl] >= s.cfg.FUs[cl] {
		return false
	}
	var fwd bool
	if e.isLoad {
		ok, forwarded := s.loadMayIssue(idx)
		if !ok {
			return false
		}
		fwd = forwarded
	}
	fuUsed[cl]++
	e.issued = true
	lat := e.latency
	if e.isLoad {
		if fwd {
			lat++
		} else {
			lat += s.hier.DL1.Access(e.addr, false)
		}
	}
	e.doneAt = s.cycle + uint64(lat)
	if e.mispredict {
		resume := e.doneAt + uint64(s.cfg.MispredictPenalty)
		if resume > s.fetchReadyAt {
			s.fetchReadyAt = resume
		}
		if s.fetchBlockSeq == e.seq {
			s.fetchBlockSeq = 0
		}
	}
	return true
}

func (s *refSim) depsReady(e *refEntry) bool {
	for d := int8(0); d < e.numDeps; d++ {
		p := &s.rob[e.dep[d]]
		if p.seq != e.depSeq[d] {
			continue
		}
		if !p.issued || p.doneAt > s.cycle {
			return false
		}
	}
	return true
}

func (s *refSim) loadMayIssue(loadIdx int) (ok, fwd bool) {
	e := &s.rob[loadIdx]
	for q := s.memqHead; q < len(s.memq); q++ {
		idx := s.memq[q]
		if int(idx) == loadIdx {
			break
		}
		p := &s.rob[idx]
		if p.isStore && p.addr == e.addr {
			if !p.issued || p.doneAt > s.cycle {
				return false, false
			}
			fwd = true
		}
	}
	return true, fwd
}

func (s *refSim) fetch(m *emu.Machine, maxInsts, startInsts uint64) (bool, error) {
	if s.cycle < s.fetchReadyAt || s.fetchBlockSeq != 0 {
		return m.Halted, nil
	}
	return s.fetchRun(m, maxInsts, startInsts)
}

func (s *refSim) fetchRun(m *emu.Machine, maxInsts, startInsts uint64) (bool, error) {
	for f := 0; f < s.cfg.FetchWidth; f++ {
		if m.Halted {
			return true, nil
		}
		if s.robCount >= s.cfg.ROBSize {
			return false, nil
		}
		if maxInsts > 0 && s.fetched()-startInsts >= maxInsts {
			return false, nil
		}
		// The one change from the frozen loop: the peek no longer
		// indexes past the code on a wild PC (which panicked), so the
		// fuzz target can compare Step's error instead.
		if m.PC >= 0 && m.PC < int64(len(m.Prog.Code)) && m.Prog.Code[m.PC].Op.IsMem() && s.lsqCount >= s.cfg.LSQSize {
			return false, nil
		}
		blk := (m.PC * isa.InstBytes) & blockMask
		if blk != s.lastFetchBlock {
			lat := s.hier.IL1.Access(m.PC*isa.InstBytes, false)
			s.lastFetchBlock = blk
			if lat > 1 {
				s.fetchReadyAt = s.cycle + uint64(lat)
				return false, nil
			}
		}
		info, err := m.Step()
		if err != nil {
			return false, fmt.Errorf("cpu: functional step: %w", err)
		}
		op := m.Prog.Code[info.PC].Op
		isMem := op.IsMem()

		idx := s.robTail
		e := &s.rob[idx]
		*e = refEntry{
			seq:     s.nextSeq,
			class:   op.Class(),
			latency: op.Latency(),
		}
		s.nextSeq++

		var srcBuf [4]isa.Reg
		srcs := m.Prog.Code[info.PC].Sources(srcBuf[:0])
		for _, r := range srcs {
			if e.numDeps >= 2 {
				break
			}
			pi := s.regProducer[r]
			if pi >= 0 {
				e.dep[e.numDeps] = pi
				e.depSeq[e.numDeps] = s.regSeq[r]
				e.numDeps++
			}
		}
		if rd, ok := m.Prog.Code[info.PC].Dests(); ok {
			e.hasDst = true
			e.dst = rd
			s.regProducer[rd] = int32(idx)
			s.regSeq[rd] = e.seq
		}

		if isMem {
			e.addr = info.MemAddr & blockMask
			e.isLoad = op.IsLoad()
			e.isStore = op.IsStore()
			s.lsqCount++
			s.memq = append(s.memq, int32(idx))
		}
		s.pending = append(s.pending, int32(idx))

		stopFetch := false
		if op.IsBranch() {
			correct := true
			switch op {
			case isa.OpJal:
				correct = s.bu.PredictCall(info.PC, info.NextPC, info.PC+1)
			case isa.OpJr:
				correct = s.bu.PredictReturn(info.PC, info.NextPC)
			case isa.OpJmp:
				correct = s.bu.PredictJump(info.PC, info.NextPC)
			default:
				correct = s.bu.PredictCond(info.PC, info.Taken, info.NextPC)
			}
			if !correct {
				e.mispredict = true
				s.fetchBlockSeq = e.seq
				s.flushes++
				stopFetch = true
			} else if info.Taken {
				stopFetch = true
			}
		}
		if op == isa.OpHalt {
			stopFetch = true
		}

		s.robTail = (s.robTail + 1) % s.cfg.ROBSize
		s.robCount++

		if stopFetch {
			return m.Halted, nil
		}
	}
	return m.Halted, nil
}

// --- Differential harness ---

// schedPair runs one program on a Sim and on a reference context that
// started from the same configuration and warm state, each on its own
// machine.
type schedPair struct {
	sim    *Sim
	ref    *refSim
	m, rm  *emu.Machine
	window int
	err    error // the Sim's error from the last window
}

func newSchedPair(t testing.TB, s *Sim, m *emu.Machine) *schedPair {
	return &schedPair{sim: s, ref: newRefSim(t, s), m: m, rm: m.Clone()}
}

// pipeState is everything the two cycle loops must agree on after a
// window besides the Result and the warm structures.
type pipeState struct {
	Cycles, RobOccSum, LsqOccSum, Flushes, Committed uint64
	NextSeq, FetchReadyAt, FetchBlockSeq             uint64
	RobCount, LsqCount                               int
	Insts                                            uint64
	PC                                               int64
	Halted                                           bool
}

func (c *schedPair) states() (got, want pipeState) {
	s, r := c.sim, c.ref
	got = pipeState{s.Cycles(), s.robOccSum, s.lsqOccSum, s.flushes, s.committed,
		s.nextSeq, s.fetchReadyAt, s.fetchBlockSeq, s.robCount, s.lsqCount, c.m.Insts, c.m.PC, c.m.Halted}
	want = pipeState{r.cycle, r.robOccSum, r.lsqOccSum, r.flushes, r.committed,
		r.nextSeq, r.fetchReadyAt, r.fetchBlockSeq, r.robCount, r.lsqCount, c.rm.Insts, c.rm.PC, c.rm.Halted}
	return got, want
}

// step runs one window on both sides and reports the first difference
// in error, Result, pipeline state or warm state. done is true once
// either side failed or the program halted.
func (c *schedPair) step(lead, maxInsts, tail uint64) (diff string, done bool) {
	c.window++
	got, gerr := c.sim.RunWindow(c.m, lead, maxInsts, tail)
	want, werr := refRunWindow(c.ref, c.rm, lead, maxInsts, tail)
	c.err = gerr
	where := fmt.Sprintf("window %d (lead %d, insts %d, tail %d)", c.window, lead, maxInsts, tail)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("%s: error %v, reference %v", where, gerr, werr), true
	}
	if got != want {
		return fmt.Sprintf("%s: result %+v, reference %+v", where, got, want), true
	}
	if gs, ws := c.states(); gs != ws {
		return fmt.Sprintf("%s: state %+v, reference %+v", where, gs, ws), true
	}
	if !sameWarmState(c.sim, &Sim{hier: c.ref.hier, bu: c.ref.bu, lastFetchBlock: c.ref.lastFetchBlock}) {
		return where + ": caches, branch unit or fetch block differ from the reference's", true
	}
	return "", gerr != nil || c.m.Halted
}

// runChained compares a full run and a chain of windows with lead-in
// and run-ahead (each window then continuing on the same context)
// until the program halts or maxWindows windows have run.
func runChained(t *testing.T, p *prog.Program, cfg Config, lead, window, tail uint64, maxWindows int) {
	t.Helper()
	full := newSchedPair(t, MustNew(cfg), emu.New(p, 0))
	if diff, _ := full.step(0, 0, 0); diff != "" {
		t.Fatalf("full run: %s", diff)
	}
	chain := newSchedPair(t, MustNew(cfg), emu.New(p, 0))
	for i := 0; i < maxWindows; i++ {
		diff, done := chain.step(lead, window, tail)
		if diff != "" {
			t.Fatalf("chained: %s", diff)
		}
		if done {
			return
		}
	}
}

// Under the race detector, which slows the cycle loop about tenfold,
// TestSchedulerMatchesReference covers only these suite programs, the
// combined predictor and one ROB size: the scheduler is single-goroutine
// code, so the full numerical comparison runs without the detector.
var schedRaceSubset = map[string]bool{"gzip": true, "swim": true}

const (
	schedRacePredictor = bpred.KindCombined
	schedRaceROB       = 37
)

// TestSchedulerMatchesReference: over every tiny suite program under
// Table I's configurations A and B (both as one run to halt and as
// chained windows with lead-in and run-ahead), the fork test program
// under both predictor kinds at two BHT sizes, and ROB sizes on
// both sides of the scheduler's 64-entry mask words (with SchedWindow
// above and equal to IssueWidth), the event-driven scheduler matches
// the rescanning reference window by window.
func TestSchedulerMatchesReference(t *testing.T) {
	t.Run("suite", func(t *testing.T) {
		for _, spec := range bench.Suite() {
			spec := spec
			if raceEnabled && !schedRaceSubset[spec.Name] {
				continue
			}
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				p := spec.MustProgram(bench.SizeTiny)
				for _, cfg := range []Config{testConfig(), testConfigB()} {
					runChained(t, p, cfg, 1000, 37000, 500, 100)
				}
			})
		}
	})
	t.Run("predictors", func(t *testing.T) {
		forEachForkConfig(t, func(t *testing.T, p *prog.Program, cfg Config) {
			if raceEnabled && cfg.Predictor != schedRacePredictor {
				t.Skip("race subset")
			}
			m, spine := warmedAt(t, p, cfg, forkWarmA)
			c := newSchedPair(t, spine, m)
			for i := 0; i < 4; i++ {
				diff, done := c.step(forkLead, forkWindow, forkTail)
				if diff != "" {
					t.Fatal(diff)
				}
				if done {
					break
				}
			}
		})
	})
	t.Run("rob-sizes", func(t *testing.T) {
		p, err := prog.Assemble("fork", forkProgram)
		if err != nil {
			t.Fatal(err)
		}
		for _, rob := range []int{2, 37, 64, 100, 300} {
			if raceEnabled && rob != schedRaceROB {
				continue
			}
			for _, width := range [][2]int{{8, 32}, {8, 8}, {1, 1}} {
				cfg := forkConfig(bpred.KindCombined, 1024)
				cfg.ROBSize = rob
				cfg.LSQSize = max(1, rob/2)
				cfg.IssueWidth, cfg.SchedWindow = width[0], width[1]
				t.Run(fmt.Sprintf("rob%d-issue%d-window%d", rob, width[0], width[1]), func(t *testing.T) {
					runChained(t, p, cfg, 300, 5000, 200, 6)
				})
			}
		}
	})
}

// TestSchedulerDeadlockMatchesReference: both loops must report a
// stuck pipeline at the same cycle with the same message. In one
// context the FP multiply pool was emptied after New (Validate rejects
// such a configuration), so an fmul never issues; in the other a
// mispredict penalty longer than the watchdog limit keeps fetch idle,
// which the idle skip must stop short of at the watchdog's cycle.
func TestSchedulerDeadlockMatchesReference(t *testing.T) {
	p, err := prog.Assemble("deadlock", `
    addi r1, r0, 3
    cvtif f1, r1
    fmul f2, f1, f1
    bne  r1, r0, skip
    addi r2, r2, 1
skip:
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	penalty := testConfig()
	penalty.Predictor = bpred.KindBimodal
	penalty.MispredictPenalty = 2 * watchdogLimit
	for _, c := range []struct {
		name     string
		cfg      Config
		afterNew func(*Config) // applied to both contexts' configurations
	}{
		{"empty-fp-multiply-pool", testConfig(), func(cfg *Config) { cfg.FUs[isa.ClassFPMul] = 0 }},
		{"penalty-beyond-watchdog", penalty, func(*Config) {}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := MustNew(c.cfg)
			pair := newSchedPair(t, s, emu.New(p, 0))
			c.afterNew(&s.cfg)
			c.afterNew(&pair.ref.cfg)
			if diff, _ := pair.step(0, 0, 0); diff != "" {
				t.Fatal(diff)
			}
			if pair.err == nil || !strings.Contains(pair.err.Error(), "model deadlock") {
				t.Fatalf("error %v, want a model deadlock", pair.err)
			}
		})
	}
}
