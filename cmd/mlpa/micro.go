// Substrate micro-benchmarks for the bench report: raw emulator
// throughput (fast path, hooked path, and the per-instruction Step
// loop it must match), clustering wall time, and end-to-end plan
// execution at two worker counts. These are the numbers the
// fast-forward optimizations are judged by; docs/PERFORMANCE.md
// explains how to compare them across commits.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"mlpa/internal/ckpt"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/experiments"
	"mlpa/internal/kmeans"
	"mlpa/internal/linalg"
	"mlpa/internal/parallel"
	"mlpa/internal/pipeline"
	"mlpa/internal/prog"
)

// microReport carries the substrate micro-benchmark results.
type microReport struct {
	// Emulator throughput in millions of instructions per second on a
	// reference triple-nested loop kernel.
	EmuFastMIPS   float64 `json:"emu_fast_mips"`
	EmuHookedMIPS float64 `json:"emu_hooked_mips"`
	EmuStepMIPS   float64 `json:"emu_step_mips"`
	// EmuSpeedup is fast-path over Step-loop throughput.
	EmuSpeedup float64 `json:"emu_speedup"`
	// EmuSuperblockMIPS (schema 4) is default-Run throughput on a
	// branchy diamond-loop kernel whose per-iteration path crosses four
	// basic blocks — the workload superblock-trace chaining targets.
	EmuSuperblockMIPS float64 `json:"emu_superblock_mips,omitempty"`

	// KMeansWall is the wall time of a reference clustering problem.
	KMeansWall int64 `json:"kmeans_wall_ns"`

	// Plan-execution wall times for the first benchmark's multi-level
	// plan across the worker curve (schema 3: workers 1/2/4/8, keyed by
	// worker count), plus the legacy workers-1/4 fields so schema-2
	// baselines stay comparable.
	PlanBenchmark string           `json:"plan_benchmark"`
	PlanWall1     int64            `json:"plan_wall_workers1_ns"`
	PlanWall4     int64            `json:"plan_wall_workers4_ns"`
	PlanWalls     map[string]int64 `json:"plan_wall_by_workers_ns,omitempty"`
	// PlanChunks (schema 4) is the chunk count the cost-aware scheduler
	// partitioned the same plan into at each worker count. It explains
	// the wall curve: equal chunk counts mean the scheduler decided the
	// extra workers could not pay for their startup.
	PlanChunks map[string]int `json:"plan_chunks_by_workers,omitempty"`

	// Checkpoint round trip (schema 5): the wall cost of persisting one
	// portable checkpoint set for the same plan to disk, and of loading
	// it back into runnable machines (integrity verification included).
	// Both are best-of-three over the whole set.
	CkptSaveNs    int64 `json:"ckpt_save_ns,omitempty"`
	CkptRestoreNs int64 `json:"ckpt_restore_ns,omitempty"`
	// Sweep (schema 5): a 4-config sensitivity sweep over the same
	// plan, from scratch — every config pays its own fast-forward, the
	// shape of independent sweep jobs — versus checkpoint-backed, where
	// fast-forward is paid once when the set is built and every config
	// restores. SweepBuildNs is that one-time set construction, and
	// SweepSpeedup = total scratch / (build + total ckpt) — the number
	// the checkpoint subsystem is judged by.
	SweepSeries  []sweepSample `json:"sweep_wall_scratch_vs_ckpt,omitempty"`
	SweepBuildNs int64         `json:"sweep_ckpt_build_ns,omitempty"`
	SweepSpeedup float64       `json:"sweep_speedup,omitempty"`
}

// sweepSample is one config's scratch-vs-checkpoint wall pair in the
// schema-5 sweep series.
type sweepSample struct {
	Config    string `json:"config"`
	ScratchNs int64  `json:"scratch_ns"`
	CkptNs    int64  `json:"ckpt_ns"`
}

// Warm policy of the checkpoint micros. Warmup is finite and modest:
// in the sweep scenario each point's warm window is the only pre-point
// work a checkpoint cannot skip, so the scratch-vs-ckpt gap is exactly
// the plain fast-forward to each warm start. Estimates are
// bit-identical between the two modes under any one policy; the policy
// only sets how much fast-forward there is to save.
const (
	microSweepWarmup = 1 << 12
	microSweepLeadIn = 256
)

// microSweepConfigs is the 4-point sensitivity sweep of the checkpoint
// micros: Table I's A and B plus two variants of A that move only the
// memory system — the axis checkpoint-backed sweeps exist to explore.
// Four configs is the sweep width the checkpoint-reuse speedup target
// is specified at.
func microSweepConfigs() []cpu.Config {
	slow := config.BaseA()
	slow.Name = "A-slowmem"
	slow.Caches.MemFirst, slow.Caches.MemNext = 300, 20
	small := config.BaseA()
	small.Name = "A-smallL2"
	small.Caches.L2.TotalBytes = 256 << 10
	small.Caches.L2.Latency = 12
	return []cpu.Config{config.BaseA(), config.SensitivityB(), slow, small}
}

// microPlanWorkers is the ExecutePlan fan-out curve the bench report
// records. Tracking every point of the curve (not just 1 and 4) keeps
// the known small-suite parallel regression visible end to end while
// it is being fixed (ROADMAP item 5a).
var microPlanWorkers = []int{1, 2, 4, 8}

// microEmuProgram is the emulator reference kernel: a triple loop nest
// of roughly 5M instructions dominated by short basic blocks.
func microEmuProgram() *prog.Program {
	return prog.ExampleTripleNested(400, 60, 50)
}

// microSuperblockProgram is the superblock showcase kernel: a long
// diamond loop (if/else on counter parity inside a counted loop) whose
// hot path chains head → cond block → arm → join every iteration.
func microSuperblockProgram() *prog.Program {
	return prog.ExampleDiamondLoop(1_000_000)
}

func measureEmu(run func(m *emu.Machine) (uint64, error)) (float64, error) {
	return measureEmuOn(microEmuProgram(), run)
}

func measureEmuOn(p *prog.Program, run func(m *emu.Machine) (uint64, error)) (float64, error) {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		m := emu.New(p, 0)
		t0 := time.Now()
		n, err := run(m)
		if err != nil {
			return 0, err
		}
		if mips := float64(n) / time.Since(t0).Seconds() / 1e6; mips > best {
			best = mips
		}
	}
	return best, nil
}

func runMicro(f *flags) (*microReport, error) {
	rep := &microReport{}

	var err error
	if rep.EmuFastMIPS, err = measureEmu(func(m *emu.Machine) (uint64, error) {
		return m.RunToCompletion(1 << 40)
	}); err != nil {
		return nil, err
	}
	if rep.EmuHookedMIPS, err = measureEmu(func(m *emu.Machine) (uint64, error) {
		var taken uint64
		m.Branch = func(from, to int64) { taken++ }
		return m.RunToCompletion(1 << 40)
	}); err != nil {
		return nil, err
	}
	if rep.EmuStepMIPS, err = measureEmu(func(m *emu.Machine) (uint64, error) {
		var n uint64
		for !m.Halted {
			if _, err := m.Step(); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	}); err != nil {
		return nil, err
	}
	if rep.EmuStepMIPS > 0 {
		rep.EmuSpeedup = rep.EmuFastMIPS / rep.EmuStepMIPS
	}
	if rep.EmuSuperblockMIPS, err = measureEmuOn(microSuperblockProgram(), func(m *emu.Machine) (uint64, error) {
		return m.RunToCompletion(1 << 40)
	}); err != nil {
		return nil, err
	}

	// Clustering: a BBV-shaped matrix, sized to run in about a second.
	rng := rand.New(rand.NewSource(f.seed))
	points := make([][]float64, 2000)
	for i := range points {
		row := make([]float64, 32)
		for j := 0; j < 8; j++ {
			row[rng.Intn(len(row))] = rng.Float64()
		}
		linalg.NormalizeL1(row)
		points[i] = row
	}
	t0 := time.Now()
	if _, err := kmeans.Best(points, 10, kmeans.Options{Seed: f.seed, Metrics: f.rt.Metrics()}); err != nil {
		return nil, err
	}
	rep.KMeansWall = time.Since(t0).Nanoseconds()

	// End-to-end: the first configured benchmark's multi-level plan at
	// workers 1 and 4, sharing one state cache the way table2 does.
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
	rep.PlanBenchmark = o.Benchmarks[0]
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
	plan, err := pl.ByMethod(experiments.MethodMultiLevel)
	if err != nil {
		return nil, err
	}
	rep.PlanWalls = make(map[string]int64, len(microPlanWorkers))
	rep.PlanChunks = make(map[string]int, len(microPlanWorkers))
	for _, workers := range microPlanWorkers {
		execOpts := pipeline.ExecOptions{
			Warmup: st.Opts.Warmup, DetailLeadIn: st.Opts.DetailLeadIn,
			Obs: f.rt, Workers: workers, Ctx: f.ctx,
		}
		chunks, err := pipeline.PlanChunks(plan, execOpts, workers)
		if err != nil {
			return nil, err
		}
		rep.PlanChunks[strconv.Itoa(workers)] = chunks
		// Best of three: the workers 1-vs-4 comparison is a CI gate
		// (-gate-parallel), so each wall is the minimum over repeats —
		// the standard way to strip scheduler noise from a wall-clock
		// comparison of near-equal quantities.
		var wall int64
		for attempt := 0; attempt < 3; attempt++ {
			execOpts.Cache = parallel.NewStateCache(p, 0, f.rt.Metrics())
			t0 := time.Now()
			if _, err := pipeline.ExecutePlan(p, plan, configs[0], execOpts); err != nil {
				return nil, err
			}
			if w := time.Since(t0).Nanoseconds(); attempt == 0 || w < wall {
				wall = w
			}
		}
		rep.PlanWalls[strconv.Itoa(workers)] = wall
		switch workers {
		case 1:
			rep.PlanWall1 = wall
		case 4:
			rep.PlanWall4 = wall
		}
	}

	// Checkpoint round trip and the scratch-vs-ckpt sweep (schema 5).
	sweepOpts := func() pipeline.ExecOptions {
		return pipeline.ExecOptions{
			Warmup: microSweepWarmup, DetailLeadIn: microSweepLeadIn,
			Obs: f.rt, Workers: 1, Ctx: f.ctx,
		}
	}
	buildStart := time.Now()
	set, err := pipeline.BuildCheckpointSet(p, plan, sweepOpts())
	if err != nil {
		return nil, err
	}
	rep.SweepBuildNs = time.Since(buildStart).Nanoseconds()

	ckptDir, err := os.MkdirTemp("", "mlpa-bench-ckpt-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	for attempt := 0; attempt < 3; attempt++ {
		t0 := time.Now()
		if err := set.Save(ckptDir); err != nil {
			return nil, err
		}
		if w := time.Since(t0).Nanoseconds(); attempt == 0 || w < rep.CkptSaveNs {
			rep.CkptSaveNs = w
		}
	}
	// Restore the way the pipeline does: one machine per chunk, every
	// further state restored in place (O(touched pages) via the dirty-
	// page tracker), so the micro tracks the cost that actually bounds
	// checkpoint-backed execution.
	for attempt := 0; attempt < 3; attempt++ {
		t0 := time.Now()
		loaded, err := ckpt.Load(ckptDir)
		if err != nil {
			return nil, err
		}
		var m *emu.Machine
		for i := range loaded.States {
			if m == nil {
				if m, err = loaded.States[i].NewMachine(loaded.Program); err != nil {
					return nil, err
				}
			} else if err := loaded.States[i].RestoreInto(m); err != nil {
				return nil, err
			}
		}
		if w := time.Since(t0).Nanoseconds(); attempt == 0 || w < rep.CkptRestoreNs {
			rep.CkptRestoreNs = w
		}
	}

	// Scratch walls use a private state cache per config (opts.Cache
	// nil), the shape of independent sweep jobs; checkpoint-backed
	// walls share nothing but the set. Both modes must agree exactly —
	// the sweep is a perf comparison, never an accuracy trade.
	var scratchTotal, ckptTotal int64
	for _, cfg := range microSweepConfigs() {
		t0 := time.Now()
		sEst, err := pipeline.ExecutePlan(p, plan, cfg, sweepOpts())
		if err != nil {
			return nil, err
		}
		scratchNs := time.Since(t0).Nanoseconds()
		opts := sweepOpts()
		opts.Checkpoints = set
		t0 = time.Now()
		cEst, err := pipeline.ExecutePlan(p, plan, cfg, opts)
		if err != nil {
			return nil, err
		}
		ckptNs := time.Since(t0).Nanoseconds()
		if d := estimateDiff(cEst, sEst); d != "" {
			return nil, fmt.Errorf("micro sweep config %s: checkpoint-backed estimate differs from scratch: %s", cfg.Name, d)
		}
		rep.SweepSeries = append(rep.SweepSeries, sweepSample{Config: cfg.Name, ScratchNs: scratchNs, CkptNs: ckptNs})
		scratchTotal += scratchNs
		ckptTotal += ckptNs
	}
	if denom := rep.SweepBuildNs + ckptTotal; denom > 0 {
		rep.SweepSpeedup = float64(scratchTotal) / float64(denom)
	}

	planCurve := make([]string, 0, len(microPlanWorkers))
	for _, workers := range microPlanWorkers {
		planCurve = append(planCurve, fmt.Sprintf("%d:%v", workers,
			time.Duration(rep.PlanWalls[strconv.Itoa(workers)]).Round(time.Millisecond)))
	}
	fmt.Printf("micro: emu fast %.1f M-inst/s, superblock %.1f, hooked %.1f, step %.1f (%.2fx), kmeans %v, plan workers %s\n",
		rep.EmuFastMIPS, rep.EmuSuperblockMIPS, rep.EmuHookedMIPS, rep.EmuStepMIPS, rep.EmuSpeedup,
		time.Duration(rep.KMeansWall).Round(time.Millisecond),
		strings.Join(planCurve, " "))
	fmt.Printf("micro: ckpt save %v, restore %v, %d-config sweep scratch %v vs build %v + ckpt %v (%.2fx)\n",
		time.Duration(rep.CkptSaveNs).Round(time.Microsecond),
		time.Duration(rep.CkptRestoreNs).Round(time.Microsecond),
		len(rep.SweepSeries),
		time.Duration(scratchTotal).Round(time.Millisecond),
		time.Duration(rep.SweepBuildNs).Round(time.Millisecond),
		time.Duration(ckptTotal).Round(time.Millisecond),
		rep.SweepSpeedup)
	return rep, nil
}

// estimateDiff describes the first difference between two estimates
// of one plan — CPI, hit rates, then each point record with its
// wall-clock fields zeroed — or returns "" when they agree exactly.
func estimateDiff(got, want *pipeline.Estimate) string {
	switch {
	case got.CPI != want.CPI:
		return fmt.Sprintf("CPI %v, want %v", got.CPI, want.CPI)
	case got.L1Hit != want.L1Hit:
		return fmt.Sprintf("L1 hit rate %v, want %v", got.L1Hit, want.L1Hit)
	case got.L2Hit != want.L2Hit:
		return fmt.Sprintf("L2 hit rate %v, want %v", got.L2Hit, want.L2Hit)
	case len(got.PointRecords) != len(want.PointRecords):
		return fmt.Sprintf("%d point records, want %d", len(got.PointRecords), len(want.PointRecords))
	}
	for i := range got.PointRecords {
		g, w := got.PointRecords[i], want.PointRecords[i]
		g.WallFunctional, g.WallDetailed = 0, 0
		w.WallFunctional, w.WallDetailed = 0, 0
		if g != w {
			return fmt.Sprintf("point %d: %+v, want %+v", i, g, w)
		}
	}
	return ""
}
