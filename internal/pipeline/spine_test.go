package pipeline

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/cache"
	"mlpa/internal/ckpt"
	"mlpa/internal/coasts"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/multilevel"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
)

// referenceExecute executes a plan one point at a time with no warm
// state shared between points: a private copy of a machine fast-
// forwarded to the point's warm start, a new detailed context warmed
// over the point's whole warm window, code self-warming on a clone when
// that window is shorter than the point, then the detailed window. It
// is the per-point algorithm the spine replaces, kept here as the
// reference the spine must reproduce bit for bit.
func referenceExecute(p *prog.Program, plan *sampling.Plan, cfg cpu.Config, opts ExecOptions) (*Estimate, error) {
	tasks, err := planTasks(plan, opts)
	if err != nil {
		return nil, err
	}
	est := &Estimate{
		Benchmark:       plan.Benchmark,
		Method:          plan.Method,
		TotalInsts:      plan.TotalInsts,
		DetailedInsts:   plan.DetailedInsts(),
		FunctionalInsts: plan.FunctionalInsts(),
		Points:          len(plan.Points),
	}
	var l1Num, l1Den, l2Num, l2Den float64
	// Warm starts never decrease along a plan, so one machine fast-
	// forwards through all of them and each point copies it.
	base := emu.New(p, 0)
	for pi, pt := range plan.Points {
		task := tasks[pi]
		if _, err := base.RunTo(context.Background(), task.warmStart); err != nil {
			return nil, err
		}
		m := base.Clone()
		sim, err := cpu.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := sim.Warm(m, task.warm); err != nil {
			return nil, err
		}
		livein, err := boundaryLiveIn(m)
		if err != nil {
			return nil, err
		}
		if opts.Warmup > 0 && task.warm < pt.Len() {
			if err := sim.WarmCode(m.Clone(), pt.Len()); err != nil {
				return nil, err
			}
		}
		res, err := sim.RunWindow(m, task.lead, pt.Len(), 0)
		if err != nil {
			return nil, err
		}
		rec := PointRecord{
			Index: pi, Start: pt.Start, End: pt.End, Weight: pt.Weight,
			Insts: res.Insts, Cycles: res.Cycles, CPI: res.CPI(),
			L1Hit: res.L1.HitRate(), L2Hit: res.L2.HitRate(),
			L1Accesses: res.L1.Accesses, L1Hits: res.L1.Hits(),
			L2Accesses: res.L2.Accesses, L2Hits: res.L2.Hits(),
			FastForward: task.skip, Warmed: task.warm, Lead: task.lead,
			LiveIn: livein,
		}
		est.PointRecords = append(est.PointRecords, rec)
		est.CPI += rec.Weight * rec.CPI
		perInst := 1 / float64(rec.Insts)
		l1Den += rec.Weight * float64(rec.L1Accesses) * perInst
		l1Num += rec.Weight * float64(rec.L1Hits) * perInst
		l2Den += rec.Weight * float64(rec.L2Accesses) * perInst
		l2Num += rec.Weight * float64(rec.L2Hits) * perInst
	}
	est.L1Hit = ratioOr1(l1Num, l1Den)
	est.L2Hit = ratioOr1(l2Num, l2Den)
	return est, nil
}

// spinePolicy is one warm policy the spine is checked under.
type spinePolicy struct {
	name string
	opts ExecOptions
}

// spinePolicies returns the warm policies a plan is checked under: the
// harness default (every warm start 0, one spine per chunk); a finite
// window reaching exactly back to instruction 0 from the plan's second
// point, so the first two points share a spine and every later point
// starts its own; and cold execution (no warming, no spine).
func spinePolicies(plan *sampling.Plan) []spinePolicy {
	return []spinePolicy{
		{"harness", ExecOptions{Warmup: math.MaxUint64, DetailLeadIn: 512}},
		{"mixed", ExecOptions{Warmup: plan.Points[1].Start, DetailLeadIn: 256}},
		{"cold", ExecOptions{DetailLeadIn: 256}},
	}
}

// diffPlans returns the plans the differential test covers on one
// tiny-suite benchmark: SimPoint's (Kmax 8) always, and the multi-level
// plan for art and bzip2.
func diffPlans(t *testing.T, name string, p *prog.Program) []*sampling.Plan {
	t.Helper()
	fine := simpoint.Config{IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1}
	sp, _, _, err := simpoint.Select(p, fine)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*sampling.Plan{sp}
	if name == "art" || name == "bzip2" {
		ml, _, err := multilevel.Select(p, multilevel.Config{Coarse: coasts.Config{Seed: 1}, Fine: fine})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, ml)
	}
	return plans
}

// raceSubset is the part of the suite TestExecutePlanMatchesPerPointReference
// covers under the race detector, which slows the warm loop about 13x:
// every benchmark drives the same concurrent code, so the race check
// needs only a few, while the full-suite numerical comparison runs
// without the detector. art and bzip2 carry the multi-level plans.
var raceSubset = map[string]bool{"art": true, "bzip2": true, "gzip": true, "swim": true}

// TestExecutePlanMatchesPerPointReference is the differential test of
// linear functional warming: over the tiny suite's SimPoint plans and
// the multi-level plans of art and bzip2, under the harness, mixed and
// cold warm policies, both Table I configurations, 1 and 4 workers, and
// with and without a checkpoint set, ExecutePlan's estimates and point
// records must equal referenceExecute's (wall-clock fields excepted).
func TestExecutePlanMatchesPerPointReference(t *testing.T) {
	configs := []cpu.Config{config.BaseA(), config.SensitivityB()}
	for _, spec := range bench.Suite() {
		spec := spec
		if raceEnabled && !raceSubset[spec.Name] {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := spec.MustProgram(bench.SizeTiny)
			for _, plan := range diffPlans(t, spec.Name, p) {
				if len(plan.Points) < 3 {
					t.Fatalf("%s plan has %d points; the mixed policy needs three", plan.Method, len(plan.Points))
				}
				for _, pol := range spinePolicies(plan) {
					set, err := BuildCheckpointSet(p, plan, pol.opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, cfg := range configs {
						want, err := referenceExecute(p, plan, cfg, pol.opts)
						if err != nil {
							t.Fatal(err)
						}
						for _, workers := range []int{1, 4} {
							for _, set := range []*ckpt.Set{nil, set} {
								opts := pol.opts
								opts.Workers = workers
								opts.Checkpoints = set
								got, err := ExecutePlan(p, plan, cfg, opts)
								if err != nil {
									t.Fatal(err)
								}
								where := fmt.Sprintf("%s plan, %s policy, config %s, workers %d, ckpt %v",
									plan.Method, pol.name, cfg.Name, workers, set != nil)
								if !reflect.DeepEqual(stripWall(got), want) {
									t.Errorf("%s: estimate differs from the per-point reference:\n got %s\nwant %s%s",
										where, dumpEstimate(stripWall(got)), dumpEstimate(want), firstRecordDiff(stripWall(got), want))
								}
							}
						}
					}
				}
			}
		})
	}
}

// firstRecordDiff names the first point record that differs.
func firstRecordDiff(got, want *Estimate) string {
	for i := range want.PointRecords {
		if i >= len(got.PointRecords) {
			return fmt.Sprintf("\nrecord %d missing", i)
		}
		if !reflect.DeepEqual(got.PointRecords[i], want.PointRecords[i]) {
			return fmt.Sprintf("\nfirst differing record %d:\n got %+v\nwant %+v", i, got.PointRecords[i], want.PointRecords[i])
		}
	}
	return ""
}

// TestWarmInstsCount pins the warming work ExecutePlan does, as an
// instruction count rather than a time: at one worker under unbounded
// warmup, one spine warms each instruction before the plan's last
// boundary exactly once; under a finite window short enough that no two
// points' windows overlap, every point warms its own window.
func TestWarmInstsCount(t *testing.T) {
	spec := bench.Suite()[0]
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) < 3 {
		t.Fatalf("%s plan has %d points; the count needs several", spec.Name, len(plan.Points))
	}
	count := func(opts ExecOptions) (int64, *Estimate) {
		t.Helper()
		opts.Workers = 1
		opts.Obs = obs.New(nil)
		est, err := ExecutePlan(p, plan, config.BaseA(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return opts.Obs.Metrics().Counter("pipeline.warm_insts").Value(), est
	}

	got, est := count(ExecOptions{Warmup: math.MaxUint64, DetailLeadIn: 512})
	last := est.PointRecords[len(est.PointRecords)-1]
	var perPoint uint64
	for _, r := range est.PointRecords {
		perPoint += r.Warmed
	}
	if want := int64(last.Start - last.Lead); got != want {
		t.Errorf("harness policy: warmed %d instructions, want the last boundary %d (per-point re-warming would be %d)",
			got, want, perPoint)
	}

	got, est = count(ExecOptions{Warmup: 500, DetailLeadIn: 256})
	var sum uint64
	prevEnd := uint64(0)
	for i, r := range est.PointRecords {
		if ws := r.Start - r.Lead - r.Warmed; i > 0 && ws < prevEnd {
			t.Fatalf("point %d's warm window starts at %d, inside point %d's region; pick a shorter window", i, ws, i-1)
		}
		sum += r.Warmed
		prevEnd = r.End
	}
	if got != int64(sum) || sum == 0 {
		t.Errorf("finite policy: warmed %d instructions, want the sum of Warmed %d", got, sum)
	}
}

// TestLayerCounters: on a finite-warm plan with self-warming points,
// the detailed model counts one window per executed point, and the
// instructions functional warming counts are the pipeline's warm
// windows plus the points' code self-warming dry runs.
func TestLayerCounters(t *testing.T) {
	spec := bench.Suite()[0]
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{Warmup: bench.FineInterval(bench.SizeTiny) / 2, DetailLeadIn: 256, Workers: 2, Obs: obs.New(nil)}
	est, err := ExecutePlan(p, plan, config.BaseA(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var selfWarmed uint64
	for _, r := range est.PointRecords {
		if n := r.End - r.Start; r.Warmed < n {
			selfWarmed += n
		}
	}
	if selfWarmed == 0 {
		t.Fatal("no point self-warms; the check needs one")
	}
	reg := opts.Obs.Metrics()
	count := func(name string) int64 { return reg.Counter(name).Value() }
	if got := count("cpu.detail.calls"); got != int64(est.Points) {
		t.Errorf("cpu.detail.calls = %d, want %d points", got, est.Points)
	}
	if got, want := count("cpu.warm.insts"), count("pipeline.warm_insts")+int64(selfWarmed); got != want {
		t.Errorf("cpu.warm.insts = %d, want pipeline.warm_insts %d + self-warmed %d", got, count("pipeline.warm_insts"), selfWarmed)
	}
	for _, name := range []string{"cpu.warm.calls", "cpu.warm.ns", "cpu.detail.ns"} {
		if count(name) <= 0 {
			t.Errorf("%s = %d, want > 0", name, count(name))
		}
	}
}

// TestSpineCostModel: on a hand-built task list, a point that continues
// its predecessor's spine is charged only its warm increment, and a
// chunk starting at such a point is charged the re-warming up to the
// predecessor's boundary on top of reaching the warm start.
func TestSpineCostModel(t *testing.T) {
	tasks := []pointTask{
		{warm: 1000, lead: 100, warmStart: 0},               // spine start
		{warm: 5000, lead: 100, warmStart: 0},               // continues: increment 4000
		{skip: 2000, warm: 300, lead: 100, warmStart: 9000}, // own window
		{warm: 800, lead: 100, warmStart: 9000},             // continues: increment 500
	}
	const ptLen = 10
	detail := func(t pointTask) float64 { return detailCostFactor * float64(t.lead+ptLen) }
	wantCost := []float64{
		warmCostFactor*1000 + detail(tasks[0]),
		warmCostFactor*4000 + detail(tasks[1]),
		2000 + warmCostFactor*300 + detail(tasks[2]),
		warmCostFactor*500 + detail(tasks[3]),
	}
	wantStart := []float64{0, warmCostFactor * 1000, 9000, 9000 + warmCostFactor*300}
	for i := range tasks {
		if got := taskCost(tasks, i, ptLen); got != wantCost[i] {
			t.Errorf("taskCost(%d) = %v, want %v", i, got, wantCost[i])
		}
		if got := startCost(tasks, i, false); got != wantStart[i] {
			t.Errorf("startCost(%d) = %v, want %v", i, got, wantStart[i])
		}
		// Checkpoint-backed startup replaces only the fast-forward.
		if got, want := startCost(tasks, i, true), wantStart[i]-float64(tasks[i].warmStart)+ckptRestoreCost; got != want {
			t.Errorf("checkpoint-backed startCost(%d) = %v, want %v", i, got, want)
		}
		// A point's whole warm window is charged exactly once, whether
		// the chunk starts at it or runs it after its predecessor.
		if got := startCost(tasks, i, false) - float64(tasks[i].warmStart) + taskCost(tasks, i, ptLen) - float64(tasks[i].skip) - detail(tasks[i]); got != warmCostFactor*float64(tasks[i].warm) {
			t.Errorf("point %d: chunk-start warming charge %v, want the whole window %v", i, got, warmCostFactor*float64(tasks[i].warm))
		}
	}
}

// TestForkAndResetCounters: at one worker a spine forks once for each
// point its successor continues, and restarts once for each later
// spine start. After a chunk's first fork into its detail context,
// forks copy only the cache sets either side touched, and restarts
// rewrite only the sets the spine used, so each rewrites fewer sets
// than a whole hierarchy holds.
func TestForkAndResetCounters(t *testing.T) {
	spec := bench.Suite()[0]
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.BaseA()
	var hierSets int64
	for _, c := range []cache.Config{cfg.Caches.IL1, cfg.Caches.DL1, cfg.Caches.L2} {
		hierSets += c.TotalBytes / (c.BlockBytes * int64(c.Assoc))
	}
	for _, opts := range []ExecOptions{
		{Warmup: math.MaxUint64, DetailLeadIn: 512},
		{Warmup: bench.FineInterval(bench.SizeTiny) / 2, DetailLeadIn: 256},
	} {
		opts.Workers = 1
		opts.Obs = obs.New(nil)
		if _, err := ExecutePlan(p, plan, cfg, opts); err != nil {
			t.Fatal(err)
		}
		tasks, err := planTasks(plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		var forks, restarts int64
		for pi := range tasks {
			if pi+1 < len(tasks) && continuesSpine(tasks, pi+1) {
				forks++
			}
			if pi > 0 && !continuesSpine(tasks, pi) {
				restarts++
			}
		}
		reg := opts.Obs.Metrics()
		label := fmt.Sprintf("warmup %d", opts.Warmup)
		for _, c := range []struct {
			name       string
			calls, max int64
		}{
			{"cpu.fork", forks, forks * hierSets},
			{"cpu.reset", restarts, restarts * hierSets},
		} {
			calls, sets := reg.Counter(c.name+".calls").Value(), reg.Counter(c.name+".sets").Value()
			if calls != c.calls {
				t.Errorf("%s: %s.calls = %d, want %d", label, c.name, calls, c.calls)
			}
			if c.calls > 1 && sets >= c.max {
				t.Errorf("%s: %s.sets = %d, want fewer than %d calls × %d sets", label, c.name, sets, calls, hierSets)
			}
		}
		if forks+restarts == 0 {
			t.Errorf("%s: the plan neither forks nor restarts a spine", label)
		}
	}
}
