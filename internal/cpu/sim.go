package cpu

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"mlpa/internal/bpred"
	"mlpa/internal/cache"
	"mlpa/internal/emu"
	"mlpa/internal/isa"
	"mlpa/internal/obs"
)

// robEntry is one in-flight instruction. Its operand wake-up state
// lives in Sim's side arrays, indexed by the same ROB slot, which keeps
// the entry small.
type robEntry struct {
	seq    uint64
	doneAt uint64 // cycle result is available; valid once issued
	addr   int64  // block-aligned memory address for loads/stores

	latency int32
	class   isa.Class
	dst     isa.Reg
	issued  bool
	isLoad  bool
	isStore bool
	hasDst  bool

	mispredict bool // fetch is stalled until this branch resolves
}

// wakeState is one ROB slot's operand wake-up state.
type wakeState struct {
	readyAt   uint64 // latest doneAt among the entry's issued producers
	waits     int32  // producers that have not issued yet
	consumers int32  // first edge of the consumer list, plus one (0 = empty)
}

// Sim is one detailed simulation context: pipeline state plus memory
// system and branch unit. State persists across Run calls so a full
// program can be simulated in consecutive regions with warm
// structures. New and Acquire make a cold context and ResetCold returns
// one to that state; Fork makes a context that continues a functionally
// warmed one with an empty pipeline, which is how a sampled simulation
// point enters detailed mode.
type Sim struct {
	cfg  Config
	hier *cache.Hierarchy
	bu   *bpred.Unit

	// fork is the detail context Fork copies this one into, built on
	// the first Fork and reused by every later one.
	fork *Sim

	rob      []robEntry
	robHead  int
	robTail  int
	robCount int

	// Scheduler state, indexed by ROB slot. At dispatch an entry
	// counts its un-issued producers in wake[i].waits and links edge
	// 2i+k (its k-th operand) onto each one's consumer list, chained
	// through edgeNext; issuing a producer pushes its doneAt to every
	// consumer. unissued marks the dispatched entries not yet issued
	// (numUnissued of them), ready those whose producers have all
	// issued: the only entries the scheduler visits.
	wake        []wakeState
	edgeNext    []int32
	unissued    []uint64
	ready       []uint64
	numUnissued int

	// memq holds ROB indices of in-flight memory operations in
	// program order (the load/store queue); memqHead is its logical
	// front.
	memq     []int32
	memqHead int
	lsqCount int

	// regProducer[r] is the ROB index of the latest in-flight producer
	// of register r, or -1; regSeq[r] its sequence number.
	regProducer [64]int32
	regSeq      [64]uint64

	cycle   uint64
	nextSeq uint64

	// Occupancy and flush telemetry, accumulated over the context
	// lifetime (occupancy × cycles elapsed, also across skipped idle
	// cycles; RunWindow differences them per window when Metrics is
	// set).
	robOccSum uint64
	lsqOccSum uint64
	flushes   uint64

	// Metrics, if non-nil, receives per-window telemetry from
	// RunWindow: gauge cpu.kips, gauges cpu.rob_occupancy /
	// cpu.lsq_occupancy (average entries per cycle), counter
	// cpu.flushes (branch-mispredict pipeline redirects) and the layer
	// counters cpu.detail.{calls,ns}; warming adds cpu.warm.{calls,
	// insts,ns}. All are counted per call, never per instruction.
	Metrics *obs.Registry

	// Front-end state.
	fetchReadyAt   uint64 // cycle fetch may resume (I-miss or redirect)
	fetchBlockSeq  uint64 // seq of unresolved mispredicted branch, 0 if none
	lastFetchBlock int64

	committed uint64
}

// New creates a cold detailed-simulation context.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.Caches)
	if err != nil {
		return nil, err
	}
	bu, err := bpred.NewUnit(cfg.Predictor, cfg.BHTEntries)
	if err != nil {
		return nil, err
	}
	words := (cfg.ROBSize + 63) / 64
	s := &Sim{
		cfg:            cfg,
		hier:           hier,
		bu:             bu,
		rob:            make([]robEntry, cfg.ROBSize),
		wake:           make([]wakeState, cfg.ROBSize),
		edgeNext:       make([]int32, 2*cfg.ROBSize),
		unissued:       make([]uint64, words),
		ready:          make([]uint64, words),
		lastFetchBlock: -1,
		nextSeq:        1,
	}
	for i := range s.regProducer {
		s.regProducer[i] = -1
	}
	return s, nil
}

// Fork returns s's detail fork, a context that continues from s's
// warmed state: its caches, branch unit and fetch-block register become
// copies of s's, and its pipeline, cycle counter and telemetry are reset
// to those of a new context, so running the fork is equivalent to
// running a cpu.New context warmed over the same history as s. s's
// architectural state is not modified, and the fork inherits s's
// Metrics. s owns the fork: the first call builds it with New, and each
// later call overwrites it in place, copying only the cache sets either
// side touched since the previous call (cache.Cache.CopyFrom), so a fork
// stays valid until s's next Fork. With Metrics set, each call adds to
// counters cpu.fork.calls and cpu.fork.sets (the cache sets copied), and
// the call that builds the fork adds one to cpu.contexts.built.
func (s *Sim) Fork() (*Sim, error) {
	f := s.fork
	if f == nil {
		var err error
		if f, err = New(s.cfg); err != nil {
			return nil, err
		}
		s.fork = f
		if s.Metrics != nil {
			s.Metrics.Counter("cpu.contexts.built").Add(1)
		}
	} else {
		f.resetPipeline()
	}
	sets, err := f.hier.CopyFrom(s.hier)
	if err != nil {
		return nil, err
	}
	if err := f.bu.CopyFrom(s.bu); err != nil {
		return nil, err
	}
	f.lastFetchBlock = s.lastFetchBlock
	f.Metrics = s.Metrics
	if s.Metrics != nil {
		s.Metrics.Counter("cpu.fork.calls").Add(1)
		s.Metrics.Counter("cpu.fork.sets").Add(int64(sets))
	}
	return f, nil
}

// ResetCold returns s to the state New leaves, in place: an empty
// pipeline, cold caches and branch unit, and zeroed counters. Only the
// cache sets used since the caches were cold are rewritten
// (cache.Cache.ResetCold), so restarting a context that warmed a short
// window costs that window's footprint, not the hierarchy's size.
// Metrics and the fork are kept; with Metrics set, each call adds to
// counters cpu.reset.calls and cpu.reset.sets (the cache sets
// rewritten).
func (s *Sim) ResetCold() {
	s.resetPipeline()
	sets := s.hier.ResetCold()
	s.bu.Reset()
	s.lastFetchBlock = -1
	if s.Metrics != nil {
		s.Metrics.Counter("cpu.reset.calls").Add(1)
		s.Metrics.Counter("cpu.reset.sets").Add(int64(sets))
	}
}

// resetPipeline returns every piece of timing-model state to what New
// leaves: an empty ROB, load/store queue and scheduler state, no
// register producers, and zeroed cycle, sequence and telemetry
// counters. The storage is cleared in place, so reusing a fork
// allocates nothing.
func (s *Sim) resetPipeline() {
	clear(s.rob)
	s.robHead, s.robTail, s.robCount = 0, 0, 0
	clear(s.wake)
	clear(s.edgeNext)
	clear(s.unissued)
	clear(s.ready)
	s.numUnissued = 0
	s.memq = s.memq[:0]
	s.memqHead, s.lsqCount = 0, 0
	for i := range s.regProducer {
		s.regProducer[i] = -1
	}
	s.regSeq = [64]uint64{}
	s.cycle, s.nextSeq = 0, 1
	s.robOccSum, s.lsqOccSum, s.flushes = 0, 0, 0
	s.fetchReadyAt, s.fetchBlockSeq = 0, 0
	s.committed = 0
}

// MustNew is New, panicking on configuration errors.
func MustNew(cfg Config) *Sim {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the machine configuration.
func (s *Sim) Config() Config { return s.cfg }

// Cycles returns the total cycles simulated by this context.
func (s *Sim) Cycles() uint64 { return s.cycle }

// watchdogLimit is the number of consecutive cycles without a commit
// after which Run reports a model deadlock (a bug, not a workload
// property).
const watchdogLimit = 1 << 20

// Run simulates up to maxInsts committed instructions (0 = until the
// program halts) starting from m's current state, and returns the
// timing result for exactly this region. The machine's architectural
// state advances with the simulation.
func (s *Sim) Run(m *emu.Machine, maxInsts uint64) (Result, error) {
	return s.RunWindow(m, 0, maxInsts, 0)
}

// snapshot captures the counters needed to delimit a measured region.
type snapshot struct {
	cycles uint64
	insts  uint64
	il1    cache.Stats
	dl1    cache.Stats
	l2     cache.Stats
	branch bpred.Stats
}

func (s *Sim) snap() snapshot {
	return snapshot{
		cycles: s.cycle,
		insts:  s.committed,
		il1:    s.hier.IL1.Stats(),
		dl1:    s.hier.DL1.Stats(),
		l2:     s.hier.L2.Stats(),
		branch: s.bu.Stats(),
	}
}

// since returns the counts accumulated from snapshot a to b: committed
// instructions, cycles, each cache level's statistics with the combined
// L1's, and the branch statistics.
func (b snapshot) since(a snapshot) Result {
	res := Result{
		Insts:  b.insts - a.insts,
		Cycles: b.cycles - a.cycles,
		IL1:    diffStats(b.il1, a.il1),
		DL1:    diffStats(b.dl1, a.dl1),
		L2:     diffStats(b.l2, a.l2),
		Branch: bpred.Stats{
			Lookups:      b.branch.Lookups - a.branch.Lookups,
			DirMisses:    b.branch.DirMisses - a.branch.DirMisses,
			TargetMisses: b.branch.TargetMisses - a.branch.TargetMisses,
		},
	}
	res.L1 = cache.Stats{
		Accesses:   res.IL1.Accesses + res.DL1.Accesses,
		Misses:     res.IL1.Misses + res.DL1.Misses,
		Writebacks: res.IL1.Writebacks + res.DL1.Writebacks,
	}
	return res
}

// RunWindow simulates lead+maxInsts+tail committed instructions as one
// continuous pipeline run but reports the timing result only for the
// maxInsts instructions after the lead (maxInsts 0 = until halt, in
// which case tail is ignored). The lead removes start-up ramp; the
// tail (run-ahead) lets the out-of-order window overlap the measured
// region's trailing latencies with successor work, exactly as a
// continuous simulation would, instead of charging the full drain to
// the measured region. Plan execution passes a zero tail; the parameter
// remains only because perfbench's traced replay passes
// pipeline.PointRecord.Tail, and the change that deletes that replay
// (ROADMAP.md, item 3) deletes it.
func (s *Sim) RunWindow(m *emu.Machine, lead, maxInsts, tail uint64) (Result, error) {
	startInsts := s.committed
	mid := s.snap()
	midTaken := lead == 0
	var end snapshot
	endTaken := false
	endAt := uint64(0) // commit count at which the measured region ends
	total := uint64(0)
	if maxInsts > 0 {
		endAt = lead + maxInsts
		total = lead + maxInsts + tail
	}

	var t0 time.Time
	var startCycles, startRobOcc, startLsqOcc, startFlushes uint64
	if s.Metrics != nil {
		t0 = time.Now() //mlpalint:allow time-now (metrics wall clock, not simulated state)
		startCycles = s.cycle
		startRobOcc, startLsqOcc, startFlushes = s.robOccSum, s.lsqOccSum, s.flushes
	}

	attrs := attrTable(m.Prog)
	fetchDone := false // stop fetching: budget reached or program halted
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

		// Commit stage.
		commits := 0
		for commits < s.cfg.CommitWidth && s.robCount > 0 {
			e := &s.rob[s.robHead]
			if !e.issued || e.doneAt > s.cycle {
				break
			}
			if e.isStore {
				// Stores write the cache at commit; latency is hidden
				// by the store buffer.
				s.hier.DL1.Access(e.addr, true)
			}
			if e.isLoad || e.isStore {
				s.lsqCount--
				// Memory ops commit in order, so this is memq's front.
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
			if s.robHead++; s.robHead == s.cfg.ROBSize {
				s.robHead = 0
			}
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

		// Issue stage: ready entries among the oldest SchedWindow
		// un-issued ones.
		issued, nextReady, stalled := s.issue()

		// Fetch/dispatch stage.
		seq, blk := s.nextSeq, s.lastFetchBlock
		if !fetchDone {
			halted, err := s.fetch(m, attrs, total, startInsts)
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

		if commits == 0 && issued == 0 && !stalled && s.nextSeq == seq && s.lastFetchBlock == blk {
			sinceCommit = s.skipIdle(nextReady, fetchDone, sinceCommit)
		}
	}

	if !midTaken {
		// The program halted before reaching the lead count: nothing
		// measured.
		mid = s.snap()
	}
	if !endTaken {
		// Run-to-halt, or the program ended inside the window.
		end = s.snap()
	}
	res := end.since(mid)
	if s.Metrics != nil {
		windowInsts := s.committed - startInsts
		elapsed := time.Since(t0)
		if secs := elapsed.Seconds(); secs > 0 && windowInsts > 0 {
			s.Metrics.Gauge("cpu.kips").Set(float64(windowInsts) / secs / 1e3)
		}
		if cycles := s.cycle - startCycles; cycles > 0 {
			s.Metrics.Gauge("cpu.rob_occupancy").Set(float64(s.robOccSum-startRobOcc) / float64(cycles))
			s.Metrics.Gauge("cpu.lsq_occupancy").Set(float64(s.lsqOccSum-startLsqOcc) / float64(cycles))
		}
		s.Metrics.Counter("cpu.flushes").Add(int64(s.flushes - startFlushes))
		s.Metrics.Counter("cpu.window_insts").Add(int64(windowInsts))
		s.Metrics.Counter("cpu.detail.calls").Add(1)
		s.Metrics.Counter("cpu.detail.ns").Add(elapsed.Nanoseconds())
	}
	return res, nil
}

func diffStats(b, a cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:   b.Accesses - a.Accesses,
		Misses:     b.Misses - a.Misses,
		Writebacks: b.Writebacks - a.Writebacks,
	}
}

// fetched returns the count of instructions dispatched into the ROB
// over the context lifetime.
func (s *Sim) fetched() uint64 { return s.committed + uint64(s.robCount) }

// retireRegs clears the producer-tracking entry if it still points at
// the retiring ROB slot.
func (s *Sim) retireRegs(idx int) {
	e := &s.rob[idx]
	if e.hasDst && s.regProducer[e.dst] == int32(idx) && s.regSeq[e.dst] == e.seq {
		s.regProducer[e.dst] = -1
	}
}

// skipIdle is called after an idle cycle: one that committed, issued
// and dispatched nothing, made no IL1 access, and left no entry with
// ready operands un-issued. Every cycle up to the next timed event is
// idle too and changes nothing but the cycle counter, the occupancy
// sums and the watchdog count. That event is the earliest of the ROB
// head's completion, nextReady (the earliest operand-ready time in the
// scheduler window) and fetchReadyAt, unless fetch is done or waits for
// a mispredicted branch to issue. skipIdle advances those counters to
// the cycle before the event, clamped so the watchdog fires at the
// cycle it would have, and returns the new watchdog count. Without a
// timed event it skips nothing.
func (s *Sim) skipIdle(nextReady uint64, fetchDone bool, sinceCommit uint64) uint64 {
	next := nextReady
	if s.robCount > 0 {
		if h := &s.rob[s.robHead]; h.issued {
			next = min(next, h.doneAt)
		}
	}
	if !fetchDone && s.fetchBlockSeq == 0 && s.fetchReadyAt > s.cycle {
		next = min(next, s.fetchReadyAt)
	}
	if next == math.MaxUint64 || next <= s.cycle+1 {
		return sinceCommit
	}
	d := min(next-1-s.cycle, watchdogLimit-sinceCommit)
	s.cycle += d
	s.robOccSum += uint64(s.robCount) * d
	s.lsqOccSum += uint64(s.lsqCount) * d
	return sinceCommit + d
}

// issue selects ready instructions oldest-first, bounded by issue
// width, functional-unit pools and the scheduler window (the oldest
// SchedWindow un-issued entries). It visits only the entries whose
// producers have all issued, in program order from the ROB head, and
// returns the number issued, the earliest operand-ready time after this
// cycle among the visited entries (math.MaxUint64 if none), and whether
// an entry with ready operands failed to issue. Every latency is at
// least one cycle, so nothing issued here readies another entry within
// the same cycle.
func (s *Sim) issue() (issued int, nextReady uint64, stalled bool) {
	var fuUsed [isa.NumClasses]int
	nextReady = math.MaxUint64
	limited := s.numUnissued > s.cfg.SchedWindow
	left := s.cfg.SchedWindow // un-issued entries the window still admits
	n := len(s.ready)
	hw := s.robHead >> 6
	fromHead := ^uint64(0) << (s.robHead & 63)
	// Words hw..n-1, then 0..hw: the head's word first from the head
	// on, last below it.
	for k := 0; k <= n; k++ {
		w, keep := hw+k, ^uint64(0)
		switch {
		case k == 0:
			keep = fromHead
		case k == n:
			keep = ^fromHead
		}
		if w >= n {
			w -= n
		}
		cand := s.ready[w] & keep
		// last: the window ends in this word, at the left-th of its
		// un-issued entries un.
		var un uint64
		last := false
		if limited {
			un = s.unissued[w] & keep
			if c := bits.OnesCount64(un); c < left {
				left -= c
			} else {
				last = true
			}
		}
		for ; cand != 0; cand &= cand - 1 {
			b := bits.TrailingZeros64(cand)
			if last && bits.OnesCount64(un&(uint64(1)<<b-1)) >= left {
				break
			}
			idx := w<<6 | b
			if at := s.wake[idx].readyAt; at > s.cycle {
				nextReady = min(nextReady, at)
				continue
			}
			e := &s.rob[idx]
			// Functional-unit availability. Branches use integer ALUs.
			cl := e.class
			switch cl {
			case isa.ClassBranch, isa.ClassNop:
				cl = isa.ClassIntALU
			case isa.ClassStore:
				cl = isa.ClassLoad // shared load/store units
			}
			if fuUsed[cl] >= s.cfg.FUs[cl] {
				stalled = true
				continue
			}
			lat := int(e.latency)
			if e.isLoad {
				ok, fwd := s.loadMayIssue(idx)
				if !ok {
					stalled = true
					continue
				}
				if fwd {
					lat++ // store-to-load forwarding
				} else {
					lat += s.hier.DL1.Access(e.addr, false)
				}
			}
			fuUsed[cl]++
			s.issueEntry(idx, e, lat)
			if issued++; issued == s.cfg.IssueWidth {
				return issued, nextReady, stalled
			}
		}
		if last {
			break
		}
	}
	return issued, nextReady, stalled
}

// issueEntry issues the entry in ROB slot idx with the given latency:
// it leaves the scheduler, a mispredicted branch schedules the fetch
// redirect, and every consumer learns when the result is available.
func (s *Sim) issueEntry(idx int, e *robEntry, lat int) {
	e.issued = true
	e.doneAt = s.cycle + uint64(lat)
	if e.mispredict {
		// Redirect: fetch resumes after resolution plus refill.
		resume := e.doneAt + uint64(s.cfg.MispredictPenalty)
		if resume > s.fetchReadyAt {
			s.fetchReadyAt = resume
		}
		if s.fetchBlockSeq == e.seq {
			s.fetchBlockSeq = 0
		}
	}
	bit := uint64(1) << (idx & 63)
	s.unissued[idx>>6] &^= bit
	s.ready[idx>>6] &^= bit
	s.numUnissued--
	for edge := s.wake[idx].consumers; edge != 0; edge = s.edgeNext[edge-1] {
		c := int(edge-1) >> 1
		cw := &s.wake[c]
		cw.readyAt = max(cw.readyAt, e.doneAt)
		if cw.waits--; cw.waits == 0 {
			s.ready[c>>6] |= uint64(1) << (c & 63)
		}
	}
}

// loadMayIssue enforces load/store ordering by walking the in-flight
// memory-operation queue up to the load: the load waits until every
// older store to the same block has completed (ok=false); when the
// nearest such store has completed, its data forwards (fwd=true).
func (s *Sim) loadMayIssue(loadIdx int) (ok, fwd bool) {
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

const blockMask = ^int64(0) << 5 // 32-byte blocks for LSQ matching

// Warm functionally executes insts instructions on m while updating
// this context's caches and branch predictor, without advancing the
// timing model. It implements SMARTS-style functional warming, an
// extension over the paper's cold-start fast-forwarding. The warmed
// state depends only on the instruction stream, so Warm(a) followed by
// Warm(b) leaves exactly the state Warm(a+b) does.
func (s *Sim) Warm(m *emu.Machine, insts uint64) error {
	return s.warm(m, insts, true)
}

// WarmCode is Warm restricted to the instruction side — instruction
// cache and branch predictor only, leaving data-cache state untouched.
// It supports dry-run self-warming of a simulation point with no
// preceding execution context (the region is replayed on a clone, or
// on the machine itself, which is rewound afterwards):
// code and predictor state converge to steady state after one replay,
// while data behaviour must not be pre-touched or the point's
// compulsory data misses would vanish.
func (s *Sim) WarmCode(m *emu.Machine, insts uint64) error {
	return s.warm(m, insts, false)
}

// WarmMeasured functionally executes up to insts instructions driving
// the caches and branch predictor, and returns the accumulated
// statistics with zero cycles — the sim-cache / sim-bpred equivalent
// of the SimpleScalar toolchain.
func (s *Sim) WarmMeasured(m *emu.Machine, insts uint64) (Result, error) {
	before := s.snap()
	startInsts := m.Insts
	if err := s.warmRun(m, insts, true); err != nil {
		return Result{}, err
	}
	// Warming commits nothing and advances no cycle, so the machine
	// counts the instructions.
	res := s.snap().since(before)
	res.Insts = m.Insts - startInsts
	return res, nil
}

func (s *Sim) warm(m *emu.Machine, insts uint64, data bool) error {
	if err := s.warmRun(m, insts, data); err != nil {
		return err
	}
	// Warmup accesses must not pollute the measured statistics.
	s.hier.IL1.ResetStats()
	s.hier.DL1.ResetStats()
	s.hier.L2.ResetStats()
	s.bu.ResetStats()
	return nil
}

// warmRun is the warming loop behind Warm, WarmCode and WarmMeasured.
// When Metrics is set it counts the call, the instructions it stepped
// and its wall time (cpu.warm.calls, cpu.warm.insts, cpu.warm.ns).
func (s *Sim) warmRun(m *emu.Machine, insts uint64, data bool) error {
	if s.Metrics == nil {
		return s.warmSteps(m, insts, data)
	}
	t0 := time.Now() //mlpalint:allow time-now (metrics wall clock, not simulated state)
	start := m.Insts
	err := s.warmSteps(m, insts, data)
	s.Metrics.Counter("cpu.warm.calls").Add(1)
	s.Metrics.Counter("cpu.warm.insts").Add(int64(m.Insts - start))
	s.Metrics.Counter("cpu.warm.ns").Add(time.Since(t0).Nanoseconds())
	return err
}

func (s *Sim) warmSteps(m *emu.Machine, insts uint64, data bool) error {
	attrs := attrTable(m.Prog)
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
		switch a := &attrs[info.PC]; a.class {
		case isa.ClassLoad, isa.ClassStore:
			if data {
				s.hier.DL1.Access(info.MemAddr&blockMask, a.class == isa.ClassStore)
			}
		case isa.ClassBranch:
			switch a.op {
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

// fetch dispatches up to FetchWidth instructions from the emulator
// into the ROB, honoring I-cache and branch-redirect stalls. Returns
// true when the program has halted.
func (s *Sim) fetch(m *emu.Machine, attrs []instAttr, maxInsts, startInsts uint64) (bool, error) {
	if s.cycle < s.fetchReadyAt || s.fetchBlockSeq != 0 {
		return m.Halted, nil
	}
	return s.fetchRun(m, attrs, maxInsts, startInsts)
}

// fetchRun is fetch's dispatch loop. attrs is m.Prog's attribute table.
func (s *Sim) fetchRun(m *emu.Machine, attrs []instAttr, maxInsts, startInsts uint64) (bool, error) {
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
		// Stall before consuming a memory instruction when the LSQ is
		// full (peek at the next opcode without stepping; an out-of-
		// range PC is left for Step to report).
		if s.lsqCount >= s.cfg.LSQSize && m.PC >= 0 && m.PC < int64(len(attrs)) && attrs[m.PC].isMem() {
			return false, nil
		}
		// Instruction cache: one access per block transition.
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
		a := &attrs[info.PC]
		class := a.class

		idx := s.robTail
		e := &s.rob[idx]
		*e = robEntry{
			seq:     s.nextSeq,
			class:   class,
			latency: int32(a.latency),
		}
		s.nextSeq++

		// Register dependencies: wait for each in-flight producer (an
		// instruction has at most two sources).
		wk := &s.wake[idx]
		*wk = wakeState{}
		for k, r := range a.src[:a.nsrc] {
			pi := s.regProducer[r]
			if pi < 0 {
				continue
			}
			if p := &s.rob[pi]; p.issued {
				wk.readyAt = max(wk.readyAt, p.doneAt)
			} else {
				edge := int32(2*idx + k)
				s.edgeNext[edge] = s.wake[pi].consumers
				s.wake[pi].consumers = edge + 1
				wk.waits++
			}
		}
		bit := uint64(1) << (idx & 63)
		s.unissued[idx>>6] |= bit
		s.numUnissued++
		if wk.waits == 0 {
			s.ready[idx>>6] |= bit
		}
		if a.hasDst {
			e.hasDst = true
			e.dst = a.dst
			s.regProducer[a.dst] = int32(idx)
			s.regSeq[a.dst] = e.seq
		}

		if class == isa.ClassLoad || class == isa.ClassStore {
			e.addr = info.MemAddr & blockMask
			e.isLoad = class == isa.ClassLoad
			e.isStore = class == isa.ClassStore
			s.lsqCount++
			s.memq = append(s.memq, int32(idx))
		}

		stopFetch := false
		if class == isa.ClassBranch {
			correct := true
			switch a.op {
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
				// One taken branch per fetch cycle.
				stopFetch = true
			}
		}
		if a.op == isa.OpHalt {
			stopFetch = true
		}

		if s.robTail++; s.robTail == s.cfg.ROBSize {
			s.robTail = 0
		}
		s.robCount++

		if stopFetch {
			return m.Halted, nil
		}
	}
	return m.Halted, nil
}
