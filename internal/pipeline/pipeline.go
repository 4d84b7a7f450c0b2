// Package pipeline orchestrates end-to-end sampled simulation: it
// executes a sampling plan (functional fast-forward and warming
// between points, detailed simulation of each point), combines point
// metrics by weight into whole-program estimates, obtains ground truth
// from a full detailed run, and evaluates both the paper's modeled
// speedups and measured wall-clock splits.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mlpa/internal/ckpt"
	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/parallel"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/staticanalysis"
	"mlpa/internal/staticanalysis/dataflow"
	"mlpa/internal/stats"
)

// ExecOptions controls plan execution.
type ExecOptions struct {
	// Warmup, when non-zero, functionally warms caches and predictor
	// over up to this many instructions immediately preceding each
	// point's detailed lead-in (SMARTS-style functional warming). The
	// warm window may extend back past the fast-forward gap into
	// regions earlier points measured — warming replays them
	// functionally without re-measuring — so a large Warmup approaches
	// continuously warmed state regardless of point spacing; at
	// math.MaxUint64 every window starts at instruction 0. Consecutive
	// points whose windows start at the same instruction share one
	// continuously warmed context, so warming costs the distance to the
	// last such point's boundary, not the sum of the windows (see
	// executePoints). When zero, every point runs on a cold context,
	// which is what plain fast-forwarding implies.
	//
	// At this reproduction's nominal-to-emulated scale, interval
	// lengths shrink by the scale factor while cache capacities and
	// miss latencies do not, so cold-start transients that cost a few
	// percent at the paper's 10M-instruction intervals would dominate
	// scaled points entirely. The experiment harness therefore applies
	// the same warmup policy to every method; the cold variant remains
	// available for the cold-start ablation.
	Warmup uint64

	// DetailLeadIn, when non-zero, additionally simulates up to this
	// many instructions in detail immediately before each point with
	// the statistics discarded, so the measured region starts with a
	// filled out-of-order window instead of an empty pipeline
	// (detailed warmup). Scaled-down points are short enough that the
	// pipeline ramp would otherwise bias every point's CPI upward.
	DetailLeadIn uint64

	// Workers selects how many simulation points execute concurrently.
	// 0 picks GOMAXPROCS; 1 executes sequentially in line on the
	// calling goroutine (no goroutines are spawned). Every point's
	// machine and cache/predictor state is a pure function of its
	// instruction position and warm window, however the points are
	// split among workers, so the resulting Estimate, point records and
	// journal aggregates are bit-for-bit identical for every worker
	// count (wall-clock fields excepted); see docs/PARALLELISM.md for
	// the contract.
	Workers int

	// Ctx, when non-nil, cancels plan execution: in-flight points
	// finish, queued points are abandoned, and ExecutePlan returns the
	// context's error. A nil Ctx means context.Background().
	Ctx context.Context

	// Cache is ignored: machines are positioned from Checkpoints or by
	// a forward walk (see executePoints).
	//
	// Deprecated: it remains only because perfbench's traced replay
	// still sets it; the change that moves perfbench onto the
	// pipeline's own layer counters (ROADMAP.md, item 3) deletes it.
	Cache *parallel.StateCache

	// Obs, when non-nil, receives per-point journal records, stage
	// spans and pipeline metrics for the run. A nil Obs costs nothing.
	Obs *obs.Runtime

	// Checkpoints, when non-nil, switches ExecutePlan to checkpoint-
	// backed execution: instead of fast-forwarding to each point's warm
	// start, the scheduler restores the point's machine from the set in
	// O(checkpoint size). Fast-forward is thereby paid once per
	// (program, plan, warm policy) — by BuildCheckpointSet or a loaded
	// ckpt.Set — and every subsequent configuration evaluation reuses
	// it. Liveness soundness makes the restored (live-in-scrubbed,
	// touched-pages-only) state architecturally indistinguishable from
	// the fast-forwarded machine, so estimates, point records and
	// journals stay bit-identical to from-scratch execution at every
	// worker count. The set must match this program, plan and warm
	// policy; a mismatch fails with an error wrapping ckpt.ErrMismatch.
	Checkpoints *ckpt.Set
}

// PointRecord is the observable outcome of one executed simulation
// point. ExecutePlan retains one record per point on the Estimate and
// journals it through ExecOptions.Obs, so per-point behaviour — which
// the weighted sums would otherwise discard — stays inspectable. The
// raw hit/access counts are kept alongside the derived rates so the
// whole-program aggregates can be reproduced from the records alone.
type PointRecord struct {
	Index  int     `json:"index"`
	Start  uint64  `json:"start"`
	End    uint64  `json:"end"`
	Weight float64 `json:"weight"`

	// Measured-region metrics.
	Insts  uint64  `json:"insts"`
	Cycles uint64  `json:"cycles"`
	CPI    float64 `json:"cpi"`
	L1Hit  float64 `json:"l1_hit"`
	L2Hit  float64 `json:"l2_hit"`

	// Raw cache counts for exact re-aggregation.
	L1Accesses uint64 `json:"l1_accesses"`
	L1Hits     uint64 `json:"l1_hits"`
	L2Accesses uint64 `json:"l2_accesses"`
	L2Hits     uint64 `json:"l2_hits"`

	// Warmup split: how the gap before the point and the discarded
	// detailed lead-in were spent, in instructions.
	FastForward uint64 `json:"ff"`
	Warmed      uint64 `json:"warmed"`
	Lead        uint64 `json:"lead"`

	// Tail is always zero: no point runs ahead past its region.
	//
	// Deprecated: it remains only because perfbench's traced replay
	// still reads it; the change that moves perfbench onto the
	// pipeline's own layer counters (ROADMAP.md, item 3) deletes it.
	Tail uint64 `json:"tail"`

	// Wall-clock split attributable to this point.
	WallFunctional time.Duration `json:"wall_functional_ns"`
	WallDetailed   time.Duration `json:"wall_detailed_ns"`

	// LiveIn is the static live-in summary at the point's boundary
	// (the position the machine enters detailed simulation at).
	LiveIn sampling.LiveIn `json:"livein"`
}

// Estimate is the outcome of executing one sampling plan.
type Estimate struct {
	Benchmark string
	Method    string

	// Weighted whole-program metric estimates (Table II metrics).
	CPI   float64
	L1Hit float64
	L2Hit float64

	// Instruction split (Table III metrics).
	DetailedInsts   uint64
	FunctionalInsts uint64
	TotalInsts      uint64
	Points          int

	// Measured wall-clock split of this reproduction's own simulators.
	WallDetailed   time.Duration
	WallFunctional time.Duration

	// PointRecords holds one record per executed point, in plan order.
	PointRecords []PointRecord
}

// DetailedFraction returns DetailedInsts / TotalInsts.
func (e *Estimate) DetailedFraction() float64 {
	if e.TotalInsts == 0 {
		return 0
	}
	return float64(e.DetailedInsts) / float64(e.TotalInsts)
}

// FunctionalFraction returns FunctionalInsts / TotalInsts.
func (e *Estimate) FunctionalFraction() float64 {
	if e.TotalInsts == 0 {
		return 0
	}
	return float64(e.FunctionalInsts) / float64(e.TotalInsts)
}

// Wall returns the total measured wall time.
func (e *Estimate) Wall() time.Duration { return e.WallDetailed + e.WallFunctional }

// FullDetailed runs the whole program through the detailed simulator
// (the sim-outorder baseline that defines ground truth).
func FullDetailed(p *prog.Program, cfg cpu.Config) (cpu.Result, time.Duration, error) {
	if err := staticanalysis.Preflight(p); err != nil {
		return cpu.Result{}, 0, fmt.Errorf("pipeline: preflight for %s: %w", p.Name, err)
	}
	m := emu.New(p, 0)
	s, err := cpu.Acquire(cfg, nil)
	if err != nil {
		return cpu.Result{}, 0, err
	}
	defer cpu.Release(s)
	t0 := time.Now()
	res, err := s.Run(m, 0)
	if err != nil {
		return cpu.Result{}, 0, fmt.Errorf("pipeline: full detailed run of %s: %w", p.Name, err)
	}
	return res, time.Since(t0), nil
}

// pointTask is the precomputed execution budget of one simulation
// point: the plain fast-forward from the previous point's end, and the
// functional-warming window and discarded detailed lead-in before the
// point. Tasks are a pure function of (plan, options), so every worker
// count derives the same schedule.
type pointTask struct {
	skip uint64 // plain fast-forward beyond the previous point's reach
	warm uint64 // functional warming (may replay earlier points' regions)
	lead uint64 // discarded detailed lead-in
	// warmStart is the instruction position warming begins at:
	// pt.Start - lead - warm.
	warmStart uint64
}

// planTasks derives the per-point execution budgets.
func planTasks(plan *sampling.Plan, opts ExecOptions) ([]pointTask, error) {
	tasks := make([]pointTask, len(plan.Points))
	var cursor uint64
	for pi, pt := range plan.Points {
		if pt.Start < cursor {
			return nil, fmt.Errorf("pipeline: plan %s/%s: point %d [%d,%d) overlaps the previous point or is unsorted (machine already at instruction %d)",
				plan.Benchmark, plan.Method, pi, pt.Start, pt.End, cursor)
		}
		ff := pt.Start - cursor
		lead := opts.DetailLeadIn
		if lead > ff {
			lead = ff
		}
		// The warm window is capped by available history, not by the
		// gap: when Warmup exceeds the distance to the previous point,
		// warming replays regions earlier points measured (functional
		// warming does not re-measure), so closely spaced points still
		// enter detailed simulation with deep cache and predictor
		// history — matching a continuously warmed run.
		warm := opts.Warmup
		if warm > pt.Start-lead {
			warm = pt.Start - lead
		}
		warmStart := pt.Start - lead - warm
		var skip uint64
		if warmStart > cursor {
			skip = warmStart - cursor
		}
		tasks[pi] = pointTask{skip: skip, warm: warm, lead: lead, warmStart: warmStart}
		cursor = pt.End
	}
	return tasks, nil
}

// spine is a chunk's continuously warmed state (see executePoints).
type spine struct {
	// warm holds the cache and predictor history from the current warm
	// start to the machine's boundary. Points that must leave it intact
	// run their detailed window on its fork (cpu.Sim.Fork).
	warm *cpu.Sim
	// rewind is the machine's state at the last captured boundary.
	rewind *ckpt.State
	// start is the machine's state at the spine's warm start, captured
	// only when the chunk's next spine start rewinds to it.
	start *ckpt.State
}

// captureAll captures m's complete state (every register, every written
// page) for point pi, so restoring it rewinds m exactly.
func captureAll(m *emu.Machine, pi int) (*ckpt.State, error) {
	return ckpt.Capture(m, pi, sampling.LiveIn{PC: m.PC, Int: ^uint32(0), FP: ^uint32(0), Mem: true})
}

// runPoint executes one simulation point. m must sit at the point's
// boundary (pt.Start - lead) and sp.warm must hold exactly the cache
// and predictor history of the task's warm window, with an empty
// pipeline. When keep is set, the boundary state is captured into
// sp.rewind and the detailed window runs on a fork, so the caller can
// rewind m and continue warming sp.warm; otherwise sp.warm itself runs
// the window. m advances through the lead-in and the measured region.
// t0 is when this point's functional phase (state materialization,
// fast-forward, rewind or warming) began, so the wall split charges
// state reconstruction to the point.
func runPoint(m *emu.Machine, sp *spine, keep bool, plan *sampling.Plan, pi int, task pointTask, opts ExecOptions, t0 time.Time) (PointRecord, error) {
	pt := plan.Points[pi]
	// Record the static live-in set at the boundary — the portable-
	// checkpoint storage schema.
	livein, err := boundaryLiveIn(m)
	if err != nil {
		return PointRecord{}, fmt.Errorf("pipeline: point %d in %s/%s: %w",
			pi, plan.Benchmark, plan.Method, err)
	}
	// When the context would enter the point with less warmed history
	// than the point is long — typically the contiguous points a plan
	// places at the very start of the program — dry-run the point region
	// to warm the instruction cache and branch predictor (data state is
	// left untouched; see cpu.WarmCode), then rewind, so the point
	// measures the steady-state behaviour of the phase it represents
	// rather than one-time code-fill transients.
	selfWarm := opts.Warmup > 0 && task.warm < pt.Len()
	if keep || selfWarm {
		if sp.rewind, err = captureAll(m, pi); err != nil {
			return PointRecord{}, fmt.Errorf("pipeline: boundary capture at point %d in %s/%s: %w",
				pi, plan.Benchmark, plan.Method, err)
		}
	}
	sim := sp.warm
	if keep {
		if sim, err = sp.warm.Fork(); err != nil {
			return PointRecord{}, err
		}
	}
	if selfWarm {
		if err := sim.WarmCode(m, pt.Len()); err != nil {
			return PointRecord{}, err
		}
		if err := sp.rewind.RestoreInto(m); err != nil {
			return PointRecord{}, err
		}
	}
	wallFunc := time.Since(t0)

	t0 = time.Now()
	res, err := sim.RunWindow(m, task.lead, pt.Len(), 0)
	wallDet := time.Since(t0)
	if err != nil {
		return PointRecord{}, fmt.Errorf("pipeline: detailed point %d [%d,%d) in %s/%s: %w",
			pi, pt.Start, pt.End, plan.Benchmark, plan.Method, err)
	}
	if res.Insts != pt.Len() {
		return PointRecord{}, fmt.Errorf("pipeline: point %d [%d,%d) in %s/%s simulated %d instructions, want %d",
			pi, pt.Start, pt.End, plan.Benchmark, plan.Method, res.Insts, pt.Len())
	}
	return PointRecord{
		Index:          pi,
		Start:          pt.Start,
		End:            pt.End,
		Weight:         pt.Weight,
		Insts:          res.Insts,
		Cycles:         res.Cycles,
		CPI:            res.CPI(),
		L1Hit:          res.L1.HitRate(),
		L2Hit:          res.L2.HitRate(),
		L1Accesses:     res.L1.Accesses,
		L1Hits:         res.L1.Hits(),
		L2Accesses:     res.L2.Accesses,
		L2Hits:         res.L2.Hits(),
		FastForward:    task.skip,
		Warmed:         task.warm,
		Lead:           task.lead,
		WallFunctional: wallFunc,
		WallDetailed:   wallDet,
		LiveIn:         livein,
	}, nil
}

// boundaryLiveIn computes the static live-in summary at the machine's
// current position. The dataflow solution is cached per program, so
// per-point queries cost one backward block walk each.
func boundaryLiveIn(m *emu.Machine) (sampling.LiveIn, error) {
	live, mem, err := dataflow.For(m.Prog).LiveInAt(m.PC)
	if err != nil {
		return sampling.LiveIn{}, err
	}
	ints, fps := live.Split()
	return sampling.LiveIn{PC: m.PC, Int: ints, FP: fps, Mem: mem}, nil
}

// ExecutePlan performs the sampled simulation a plan describes and
// returns the weighted estimates. Every point runs its detailed region
// on an empty pipeline whose caches and predictor hold exactly the
// history of its warm window: plain fast-forward to the window,
// functional warming across it (pass ExecOptions.Warmup; zero keeps
// every point cold, as the paper's plain fast-forward methodology
// implies), then the measured detailed region. Points sharing a warm
// start share one warm pass (executePoints). Because each point's state
// is a pure function of its position and window, ExecOptions.Workers
// chunks of points execute concurrently, and a deterministic merge
// orders the outcome by plan index — estimates are bit-for-bit
// identical for every worker count.
func ExecutePlan(p *prog.Program, plan *sampling.Plan, cfg cpu.Config, opts ExecOptions) (*Estimate, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	// Preflight: refuse to spend emulation time on a malformed guest.
	// Memoized per program, so re-executing plans costs nothing extra.
	if err := staticanalysis.Preflight(p); err != nil {
		return nil, fmt.Errorf("pipeline: preflight for %s/%s: %w", plan.Benchmark, plan.Method, err)
	}
	tasks, err := planTasks(plan, opts)
	if err != nil {
		return nil, err
	}
	if opts.Checkpoints != nil {
		// A stale or foreign set must fail loudly up front, not silently
		// produce estimates for a different program, plan or warm policy.
		if err := opts.Checkpoints.Match(p, plan, ckptPolicy(opts)); err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint set for %s/%s: %w", plan.Benchmark, plan.Method, err)
		}
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan.Points) {
		workers = len(plan.Points)
	}
	span := opts.Obs.StartSpan("pipeline.execute_plan",
		obs.KV("benchmark", plan.Benchmark),
		obs.KV("method", plan.Method),
		obs.KV("config", cfg.Name),
		obs.KV("points", len(plan.Points)),
		obs.KV("workers", workers))
	defer span.End()
	reg := opts.Obs.Metrics()

	recs := make([]PointRecord, len(plan.Points))
	if err := executePoints(ctx, p, plan, cfg, reg, tasks, opts, workers, recs); err != nil {
		return nil, err
	}

	// Deterministic merge: aggregate and journal in plan-index order,
	// so weighted sums, journal streams and worst-case bookkeeping are
	// independent of worker count and completion order.
	est := &Estimate{
		Benchmark:       plan.Benchmark,
		Method:          plan.Method,
		TotalInsts:      plan.TotalInsts,
		DetailedInsts:   plan.DetailedInsts(),
		FunctionalInsts: plan.FunctionalInsts(),
		Points:          len(plan.Points),
		PointRecords:    recs,
	}
	var l1Num, l1Den, l2Num, l2Den float64
	for i := range recs {
		rec := &recs[i]
		est.WallFunctional += rec.WallFunctional
		est.WallDetailed += rec.WallDetailed
		est.CPI += rec.Weight * rec.CPI
		// Hit rates are access-weighted: each point contributes its
		// access *density* scaled by its representativeness weight, so
		// phases that barely touch a cache level cannot dominate its
		// estimated hit rate.
		perInst := 1 / float64(rec.Insts)
		l1Den += rec.Weight * float64(rec.L1Accesses) * perInst
		l1Num += rec.Weight * float64(rec.L1Hits) * perInst
		l2Den += rec.Weight * float64(rec.L2Accesses) * perInst
		l2Num += rec.Weight * float64(rec.L2Hits) * perInst
		journalPoint(opts.Obs, plan, cfg.Name, *rec)
	}
	reg.Counter("pipeline.points_executed").Add(int64(len(plan.Points)))
	reg.Counter("pipeline.detailed_insts").Add(int64(est.DetailedInsts))
	reg.Counter("pipeline.functional_insts").Add(int64(est.FunctionalInsts))
	est.L1Hit = ratioOr1(l1Num, l1Den)
	est.L2Hit = ratioOr1(l2Num, l2Den)
	opts.Obs.Emit("estimate", map[string]any{
		"benchmark":          est.Benchmark,
		"method":             est.Method,
		"config":             cfg.Name,
		"cpi":                est.CPI,
		"l1_hit":             est.L1Hit,
		"l2_hit":             est.L2Hit,
		"points":             est.Points,
		"detailed_insts":     est.DetailedInsts,
		"functional_insts":   est.FunctionalInsts,
		"total_insts":        est.TotalInsts,
		"wall_detailed_ns":   est.WallDetailed.Nanoseconds(),
		"wall_functional_ns": est.WallFunctional.Nanoseconds(),
	})
	return est, nil
}

// Cost-model factors for the chunked point scheduler, in units of one
// plain fast-forwarded instruction. They only steer load balancing —
// results are bit-identical for any partition — so rough interpreter-
// speed ratios are all that is needed: functional warming drives the
// cache/predictor models, detailed simulation runs the full
// out-of-order core.
const (
	warmCostFactor   = 8
	detailCostFactor = 64
	// minChunkCost keeps a chunk worth at least a few milliseconds of
	// work (~2M fast-forward-instruction equivalents), so the scheduler
	// never splits below what a checkpoint restore costs to set up.
	minChunkCost = 1 << 21
	// ckptRestoreCost is the chunk-startup estimate under checkpoint-
	// backed execution, in the same fast-forward-instruction units:
	// decoding registers plus replaying the touched pages of a typical
	// state is on the order of a few tens of microseconds, ~64k
	// fast-forwarded instructions.
	ckptRestoreCost = 1 << 16
)

// taskCost estimates point i's execution cost for the partitioner
// when it runs after point i-1 in the same chunk: inside a spine it
// warms only the increment past the predecessor's boundary
// (spineWarm).
func taskCost(tasks []pointTask, i int, ptLen uint64) float64 {
	t := tasks[i]
	return float64(t.skip) +
		warmCostFactor*float64(spineWarm(tasks, i)) +
		detailCostFactor*float64(t.lead+ptLen)
}

// planPartition derives the cost-aware chunk schedule for a plan: a
// pure function of (plan, tasks, workers) and the host's GOMAXPROCS,
// so every worker observes the same partition. A chunk's startup
// estimate is the full fast-forward to its first warm start (a chunk
// without a checkpoint set walks there from instruction 0) plus, when
// the chunk is cut inside a spine, re-warming the spine up to the
// predecessor's boundary, the part of the point's warm window taskCost
// does not charge. The worker
// budget is clamped to GOMAXPROCS before partitioning: chunks beyond
// the cores actually available cannot shorten the real makespan, only
// time-slice against each other, so a -workers value above the machine
// (and in particular any workers>1 on a single-core host) degenerates
// to the sequential schedule instead of a guaranteed loss. Results are
// bit-identical for every partition, so the clamp affects wall time
// only.
func planPartition(plan *sampling.Plan, tasks []pointTask, workers int, ckptBacked bool) []parallel.Chunk {
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	return parallel.PartitionChunks(len(plan.Points), parallel.ChunkOptions{
		Workers:      workers,
		Cost:         func(i int) float64 { return taskCost(tasks, i, plan.Points[i].Len()) },
		StartCost:    func(i int) float64 { return startCost(tasks, i, ckptBacked) },
		MinChunkCost: minChunkCost,
	})
}

// startCost estimates what a chunk whose first point is i pays before
// that point's own taskCost: materializing the machine at the warm
// start, and re-warming a spine the cut interrupted.
func startCost(tasks []pointTask, i int, ckptBacked bool) float64 {
	// Plain fast-forward to the warm start. Checkpoint restore replaces
	// it with an O(checkpoint size) state load, so chunk startup is a
	// small constant instead of proportional to the warm-start
	// position. This frees the partitioner to open more chunks for
	// deep-in-the-program plans — exactly the plans plain fast-forward
	// keeps nearly sequential.
	c := float64(tasks[i].warmStart)
	if ckptBacked {
		c = ckptRestoreCost
	}
	return c + warmCostFactor*float64(tasks[i].warm-spineWarm(tasks, i))
}

// PlanChunks reports how many chunks ExecutePlan's cost-aware
// scheduler would run (plan, opts) with at the given worker count
// (<= 0 selects GOMAXPROCS). It is the measurement hook for bench
// reports; the schedule itself never influences results.
func PlanChunks(plan *sampling.Plan, opts ExecOptions, workers int) (int, error) {
	tasks, err := planTasks(plan, opts)
	if err != nil {
		return 0, err
	}
	return len(planPartition(plan, tasks, workers, opts.Checkpoints != nil)), nil
}

// executePoints runs the points through the cost-aware chunk
// scheduler. Each chunk positions one machine at its first point's
// warm start and carries it, with one continuously warmed cache and
// predictor context (the spine), through the chunk's points:
//
//   - A point that shares its predecessor's warm start (every point
//     after the first under unbounded warmup, where all warm starts are
//     instruction 0) continues the spine: the machine rewinds to the
//     predecessor's boundary, and the spine warms only from there to
//     this point's boundary. Warmed state at position X is a pure
//     function of the instruction stream [warmStart, X), so this is the
//     state warming the whole window from the warm start would leave.
//   - Any other point starts a new spine: positionMachine restores the
//     machine from the checkpoint set or walks it forward to the warm
//     start, and a cold context then warms the whole window. The chunk
//     acquires that context from the process-wide store (cpu.Acquire),
//     which reuses an idle context of the configuration, reset in place,
//     and builds one only when it holds none; each later spine resets
//     the previous spine's in place. Either reset rewrites only the
//     cache sets the context used (cpu.Sim.ResetCold). The chunk
//     releases the context when it ends.
//
// When the next point will continue the spine, runPoint captures the
// machine's state at this boundary (all-live) and runs the detailed
// window on the spine's fork, one detail context that the spine keeps
// across points, chunks and runs; otherwise the window runs on the
// spine itself, which ends there. A point that self-warms its code
// dry-runs its region on the machine and rewinds through the same
// capture. Restores cost O(touched pages) because machine memory is
// paged. Chunks are contiguous and cost-balanced, and
// the chunk count adapts to the work available — one chunk is exactly
// the sequential workers==1 loop — so results are bit-identical for
// every worker count and partition.
func executePoints(ctx context.Context, p *prog.Program, plan *sampling.Plan, cfg cpu.Config, reg *obs.Registry, tasks []pointTask, opts ExecOptions, workers int, recs []PointRecord) error {
	set := opts.Checkpoints
	chunks := planPartition(plan, tasks, workers, set != nil)
	reg.Gauge("pipeline.plan_chunks").Set(float64(len(chunks)))
	warmed := reg.Counter("pipeline.warm_insts")
	stage := opts.Obs.Progress().Stage("pipeline.points")
	stage.AddTotal(int64(len(plan.Points)))
	return parallel.ForEachOpt(ctx, len(chunks), len(chunks), func(ctx context.Context, k int) error {
		var (
			m   *emu.Machine
			sp  spine
			err error
		)
		if sp.warm, err = cpu.Acquire(cfg, reg); err != nil {
			return err
		}
		defer cpu.Release(sp.warm)
		c := chunks[k]
		for pi := c.Start; pi < c.End; pi++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			task := tasks[pi]
			t0 := time.Now()
			warm := task.warm
			if pi > c.Start && continuesSpine(tasks, pi) {
				if err := sp.rewind.RestoreInto(m); err != nil {
					return fmt.Errorf("pipeline: rewind for point %d in %s: %w", pi, plan.Benchmark, err)
				}
				warm = spineWarm(tasks, pi)
			} else {
				var err error
				if m, err = positionMachine(ctx, p, m, sp.start, set, reg, pi, task.warmStart); err != nil {
					return err
				}
				sp.start = nil
				if set == nil && rewindsToSpineStart(plan, tasks, pi, c.End) {
					if sp.start, err = captureAll(m, pi); err != nil {
						return fmt.Errorf("pipeline: spine-start capture at point %d in %s: %w", pi, plan.Benchmark, err)
					}
				}
				if pi > c.Start {
					// The previous spine ran its last point's window on
					// this context, which is dead now.
					sp.warm.ResetCold()
				}
			}
			if warm > 0 {
				if err := sp.warm.Warm(m, warm); err != nil {
					return err
				}
				warmed.Add(int64(warm))
			}
			keep := pi+1 < c.End && continuesSpine(tasks, pi+1)
			rec, err := runPoint(m, &sp, keep, plan, pi, task, opts, t0)
			if err != nil {
				return err
			}
			recs[pi] = rec
			stage.Add(1)
		}
		return nil
	}, parallel.ForEachOptions{Metrics: reg})
}

// continuesSpine reports whether point i shares point i-1's warm start,
// so that when both run in one chunk, i's warm window extends i-1's and
// i warms only the increment between their boundaries.
func continuesSpine(tasks []pointTask, i int) bool {
	return i > 0 && tasks[i].warmStart == tasks[i-1].warmStart
}

// spineWarm is the functional warming point i pays after point i-1 in
// the same chunk: the increment past i-1's boundary inside a spine,
// else its whole warm window.
func spineWarm(tasks []pointTask, i int) uint64 {
	if continuesSpine(tasks, i) {
		return tasks[i].warm - tasks[i-1].warm
	}
	return tasks[i].warm
}

// rewindsToSpineStart reports whether, in a chunk ending before point
// end, the next spine start after point pi lies behind the machine: a
// finite warm window reaching back past the end of the point before
// it, which is where that point leaves the machine. Only then does the
// spine pi starts need its start captured.
func rewindsToSpineStart(plan *sampling.Plan, tasks []pointTask, pi, end int) bool {
	for j := pi + 1; j < end; j++ {
		if !continuesSpine(tasks, j) {
			return tasks[j].warmStart < plan.Points[j-1].End
		}
	}
	return false
}

// positionMachine returns a machine at instruction warmStart for point
// pi, which starts a spine: m itself when the previous point left it
// there. With a checkpoint set, m (or, when m is nil, a new machine) is
// restored from the point's state, which is cheaper than any
// fast-forward. Without one the machine walks forward: a chunk's first
// point starts a new machine at instruction 0, and a later point
// continues m from where the previous point's window left it — or,
// when a finite warm window reaches behind that, from start, the
// chunk's previous spine start. Warm starts never decrease, so start is
// never ahead of warmStart.
func positionMachine(ctx context.Context, p *prog.Program, m *emu.Machine, start *ckpt.State, set *ckpt.Set, reg *obs.Registry, pi int, warmStart uint64) (*emu.Machine, error) {
	if m != nil && m.Insts == warmStart {
		return m, nil
	}
	var st *ckpt.State
	switch {
	case set != nil:
		st = set.States[pi]
	case m == nil:
		m = emu.New(p, 0)
		m.Metrics = reg
	case m.Insts > warmStart:
		if start == nil {
			return nil, fmt.Errorf("pipeline: point %d in %s: warm start %d is behind the machine at %d, and no spine start was captured",
				pi, p.Name, warmStart, m.Insts)
		}
		st = start
	}
	if st != nil {
		var err error
		if m == nil {
			m, err = st.NewMachine(p)
		} else {
			err = st.RestoreInto(m)
		}
		if err != nil {
			return nil, fmt.Errorf("pipeline: restore of point %d in %s: %w", pi, p.Name, err)
		}
		m.Metrics = reg
		reg.Counter("pipeline.ckpt_restores").Add(1)
	}
	if _, err := m.RunTo(ctx, warmStart); err != nil {
		return nil, fmt.Errorf("pipeline: fast-forward in %s: %w", p.Name, err)
	}
	return m, nil
}

// journalPoint emits one per-point journal record. The record carries
// enough raw counts that the plan's whole-program aggregates can be
// recomputed exactly from the journal alone (see docs/OBSERVABILITY.md
// for the schema).
func journalPoint(rt *obs.Runtime, plan *sampling.Plan, cfgName string, rec PointRecord) {
	if rt == nil {
		return
	}
	rt.Metrics().Histogram("pipeline.point_wall_seconds").
		Observe((rec.WallFunctional + rec.WallDetailed).Seconds())
	rt.Emit("point", map[string]any{
		"benchmark":          plan.Benchmark,
		"method":             plan.Method,
		"config":             cfgName,
		"index":              rec.Index,
		"start":              rec.Start,
		"end":                rec.End,
		"weight":             rec.Weight,
		"insts":              rec.Insts,
		"cycles":             rec.Cycles,
		"cpi":                rec.CPI,
		"l1_hit":             rec.L1Hit,
		"l2_hit":             rec.L2Hit,
		"l1_accesses":        rec.L1Accesses,
		"l1_hits":            rec.L1Hits,
		"l2_accesses":        rec.L2Accesses,
		"l2_hits":            rec.L2Hits,
		"ff":                 rec.FastForward,
		"warmed":             rec.Warmed,
		"lead":               rec.Lead,
		"wall_functional_ns": rec.WallFunctional.Nanoseconds(),
		"wall_detailed_ns":   rec.WallDetailed.Nanoseconds(),
	})
	// The live-in record is the storage schema for portable
	// checkpoints: together with the point record it specifies exactly
	// which architectural state a checkpoint at this boundary must
	// capture (see docs/OBSERVABILITY.md).
	rt.Emit("static_livein", map[string]any{
		"benchmark": plan.Benchmark,
		"method":    plan.Method,
		"config":    cfgName,
		"index":     rec.Index,
		"start":     rec.Start,
		"pc":        rec.LiveIn.PC,
		"live_int":  rec.LiveIn.Int,
		"live_fp":   rec.LiveIn.FP,
		"mem":       rec.LiveIn.Mem,
		"regs":      dataflow.FromMasks(rec.LiveIn.Int, rec.LiveIn.FP).String(),
	})
}

func ratioOr1(num, den float64) float64 {
	if den == 0 {
		return 1
	}
	return num / den
}

// Deviations compares an estimate against ground truth and returns the
// relative errors of the three Table II metrics.
func Deviations(est *Estimate, truth cpu.Result) (cpiDev, l1Dev, l2Dev float64) {
	return stats.Deviation(est.CPI, truth.CPI()),
		stats.Deviation(est.L1Hit, truth.L1HitRate()),
		stats.Deviation(est.L2Hit, truth.L2HitRate())
}

// MeasuredRates derives a sampling.TimeModel from this machine's own
// measured simulator rates: it times a short functional run and a
// short detailed run of the given program. Used for the
// measured-rates variant of the speedup tables.
func MeasuredRates(p *prog.Program, cfg cpu.Config, probeInsts uint64) (sampling.TimeModel, error) {
	if probeInsts == 0 {
		probeInsts = 200_000
	}
	m := emu.New(p, 0)
	t0 := time.Now()
	nf, err := m.Run(probeInsts)
	if err != nil {
		return sampling.TimeModel{}, err
	}
	fdur := time.Since(t0)

	m2 := emu.New(p, 0)
	sim, err := cpu.Acquire(cfg, nil)
	if err != nil {
		return sampling.TimeModel{}, err
	}
	defer cpu.Release(sim)
	t0 = time.Now()
	res, err := sim.Run(m2, probeInsts)
	if err != nil {
		return sampling.TimeModel{}, err
	}
	ddur := time.Since(t0)
	if fdur <= 0 || ddur <= 0 || nf == 0 || res.Insts == 0 {
		return sampling.TimeModel{}, degenerateProbeErr(p.Name, probeInsts, nf, fdur, res.Insts, ddur)
	}
	return sampling.TimeModel{
		Name:           "measured",
		DetailedRate:   float64(res.Insts) / ddur.Seconds(),
		FunctionalRate: float64(nf) / fdur.Seconds(),
	}, nil
}

// degenerateProbeErr reports a rate probe whose functional or detailed
// leg measured no work or no time, including everything that was
// measured so the caller can size the next probe.
func degenerateProbeErr(bench string, probeInsts, nf uint64, fdur time.Duration, nd uint64, ddur time.Duration) error {
	return fmt.Errorf(
		"pipeline: degenerate rate probe on %s (probeInsts %d): functional %d insts in %v, detailed %d insts in %v; raise probeInsts until both runs measure nonzero work and time",
		bench, probeInsts, nf, fdur, nd, ddur)
}
