// The plan-execution worker curve of the bench report: one
// benchmark's SimPoint plan, executed from a checkpoint set the way
// `mlpa ckpt exec` runs it, at each worker count, with the chunk count
// the cost-aware scheduler chose. It is the only measurement behind
// `-gate-parallel`. Substrate micros (emulator, clustering, checkpoint
// round trip) are Go benchmarks in bench_test.go; docs/PERFORMANCE.md
// lists them.
package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mlpa/internal/experiments"
	"mlpa/internal/pipeline"
)

// microReport carries the plan-execution worker curve.
type microReport struct {
	// PlanWalls is PlanBenchmark's checkpoint-backed SimPoint plan
	// wall time (best of three) at each worker count, keyed by worker
	// count.
	PlanBenchmark string           `json:"plan_benchmark"`
	PlanWalls     map[string]int64 `json:"plan_wall_by_workers_ns"`
	// PlanChunks is the chunk count the cost-aware scheduler
	// partitioned the same plan into at each worker count. It explains
	// the wall curve: equal chunk counts mean the scheduler decided the
	// extra workers could not pay for their startup.
	PlanChunks map[string]int `json:"plan_chunks_by_workers"`
}

// microPlanWorkers is the ExecutePlan fan-out curve the bench report
// records.
var microPlanWorkers = []int{1, 2, 4, 8}

func runMicro(f *flags) (*microReport, error) {
	// The first configured benchmark's SimPoint plan under `mlpa ckpt
	// save`'s warm policy (experiments.CheckpointExec), restored from a
	// checkpoint set built once before any timing. Restores make chunk
	// startup cheap, so the scheduler splits this plan across workers;
	// a scratch plan under the harness policy stays one spine, one
	// chunk, at every count.
	o, err := f.options()
	if err != nil {
		return nil, err
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"gzip"}
	}
	o.Benchmarks = o.Benchmarks[:1]
	o.Workers = 1
	o.Ctx = f.ctx
	rep := &microReport{
		PlanBenchmark: o.Benchmarks[0],
		PlanWalls:     make(map[string]int64, len(microPlanWorkers)),
		PlanChunks:    make(map[string]int, len(microPlanWorkers)),
	}
	st, err := experiments.NewStudy(o)
	if err != nil {
		return nil, err
	}
	configs, err := f.cpuConfigs()
	if err != nil {
		return nil, err
	}
	pl := st.Plans[0]
	p, err := pl.Spec.Program(o.Size)
	if err != nil {
		return nil, err
	}
	plan, err := pl.ByMethod(experiments.MethodSimPoint)
	if err != nil {
		return nil, err
	}
	opts := f.execOptions(experiments.CheckpointExec())
	set, err := pipeline.BuildCheckpointSet(p, plan, opts)
	if err != nil {
		return nil, err
	}
	planCurve := make([]string, 0, len(microPlanWorkers))
	for _, workers := range microPlanWorkers {
		execOpts := opts
		execOpts.Workers = workers
		execOpts.Checkpoints = set
		chunks, err := pipeline.PlanChunks(plan, execOpts, workers)
		if err != nil {
			return nil, err
		}
		// Best of three: the workers 1-vs-4 comparison is a CI gate
		// (-gate-parallel), so each wall is the minimum over repeats —
		// the standard way to strip scheduler noise from a wall-clock
		// comparison of near-equal quantities.
		var wall int64
		for attempt := 0; attempt < 3; attempt++ {
			t0 := time.Now()
			if _, err := pipeline.ExecutePlan(p, plan, configs[0], execOpts); err != nil {
				return nil, err
			}
			if w := time.Since(t0).Nanoseconds(); attempt == 0 || w < wall {
				wall = w
			}
		}
		key := strconv.Itoa(workers)
		rep.PlanWalls[key] = wall
		rep.PlanChunks[key] = chunks
		planCurve = append(planCurve, fmt.Sprintf("%d:%v/%d", workers,
			time.Duration(wall).Round(time.Millisecond), chunks))
	}
	fmt.Printf("micro: %s %s plan workers:wall/chunks %s\n", rep.PlanBenchmark, plan.Method, strings.Join(planCurve, " "))
	return rep, nil
}
