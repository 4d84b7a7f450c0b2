// Benchmarks regenerating every table and figure of the paper, plus
// micro-benchmarks of the substrates. Each experiment benchmark
// reports the headline numbers of its artifact via b.ReportMetric, so
// `go test -bench . -benchmem` doubles as the reproduction harness at
// benchmark scale (suite size "small"; run cmd/mlpa -size ref for the
// full-scale tables).
package mlpa_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mlpa"
	"mlpa/internal/bbv"
	"mlpa/internal/bench"
	"mlpa/internal/coasts"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/experiments"
	"mlpa/internal/kmeans"
	"mlpa/internal/linalg"
	"mlpa/internal/multilevel"
	"mlpa/internal/obs"
	"mlpa/internal/phase"
	"mlpa/internal/phasepred"
	"mlpa/internal/pipeline"
	"mlpa/internal/prog"
	"mlpa/internal/simpoint"
	"mlpa/internal/smarts"
	"mlpa/internal/vli"
)

// The experiment benchmarks share one study (point selection for the
// whole suite) built lazily at small scale.
var (
	studyOnce sync.Once
	studyVal  *experiments.Study
	studyErr  error
)

func sharedStudy(b *testing.B) *experiments.Study {
	b.Helper()
	studyOnce.Do(func() {
		studyVal, studyErr = experiments.NewStudy(experiments.Options{
			Size: bench.SizeSmall,
			Seed: 1,
		})
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyVal
}

// BenchmarkFig1PhaseTrajectory regenerates Figure 1: the fine- and
// coarse-grained BBV trajectories of lucas with selected points.
// Reported metrics: trajectory roughness (fine should be an order of
// magnitude rougher than coarse).
func BenchmarkFig1PhaseTrajectory(b *testing.B) {
	var res *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig1(experiments.Options{Size: bench.SizeTiny, Seed: 1}, "lucas")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(experiments.Roughness(res.Fine), "fine-roughness")
	b.ReportMetric(experiments.Roughness(res.Coarse), "coarse-roughness")
	b.ReportMetric(float64(len(res.Fine)), "fine-intervals")
	b.ReportMetric(float64(len(res.Coarse)), "coarse-intervals")
}

// BenchmarkFig3CoastsSpeedup regenerates Figure 3: per-benchmark and
// geometric-mean speedup of COASTS over 10M SimPoint (paper: 6.78x).
func BenchmarkFig3CoastsSpeedup(b *testing.B) {
	st := sharedStudy(b)
	b.ResetTimer()
	var res *experiments.SpeedupResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = st.Fig3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GeoMean, "geomean-speedup-x")
}

// BenchmarkFig4MultiLevelSpeedup regenerates Figure 4: speedup of the
// multi-level framework over 10M SimPoint (paper: 14.04x, gcc ~0.97x).
func BenchmarkFig4MultiLevelSpeedup(b *testing.B) {
	st := sharedStudy(b)
	b.ResetTimer()
	var res *experiments.SpeedupResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = st.Fig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GeoMean, "geomean-speedup-x")
	for _, r := range res.Rows {
		if r.Benchmark == "gcc" {
			b.ReportMetric(r.Speedup, "gcc-speedup-x")
		}
	}
}

// BenchmarkTable3PointStatistics regenerates Table III: mean interval
// size, sample count, detailed and functional fractions per method.
func BenchmarkTable3PointStatistics(b *testing.B) {
	st := sharedStudy(b)
	b.ResetTimer()
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = st.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Method {
		case experiments.MethodCoasts:
			b.ReportMetric(r.MeanSampleNumber, "coasts-samples")
			b.ReportMetric(r.MeanFunctionalPct*100, "coasts-functional-pct")
		case experiments.MethodSimPoint:
			b.ReportMetric(r.MeanSampleNumber, "simpoint-samples")
			b.ReportMetric(r.MeanFunctionalPct*100, "simpoint-functional-pct")
		case experiments.MethodMultiLevel:
			b.ReportMetric(r.MeanDetailPct*100, "multilevel-detail-pct")
		}
	}
}

// table2Bench regenerates one configuration column of Table II at tiny
// scale (ground-truth detailed runs dominate the cost).
func table2Bench(b *testing.B, cfg cpu.Config) {
	o := experiments.Options{Size: bench.SizeTiny, Seed: 1}
	st, err := experiments.NewStudy(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res, err = st.Table2([]cpu.Config{cfg})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, method := range experiments.Methods() {
		cell := res.Cells["CPI"][method][cfg.Name]
		b.ReportMetric(cell.Avg*100, method+"-cpi-avg-dev-pct")
	}
}

// BenchmarkTable2DeviationA regenerates Table II under configuration A.
func BenchmarkTable2DeviationA(b *testing.B) { table2Bench(b, config.BaseA()) }

// BenchmarkTable2DeviationB regenerates Table II under configuration B.
func BenchmarkTable2DeviationB(b *testing.B) { table2Bench(b, config.SensitivityB()) }

// Substrate micro-benchmarks.

// BenchmarkFunctionalEmulator measures the fast-forward engine rate.
func BenchmarkFunctionalEmulator(b *testing.B) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m := emu.New(p, 0)
		n, err := m.RunToCompletion(1 << 30)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "M-inst/s")
}

// emuThroughputBench measures raw execution rate (machine construction
// hoisted out, Reset per iteration) on a loop-nest kernel, for one of
// the three engine variants. The fast/step pair quantifies the
// predecoded batched loop's speedup over the per-instruction
// reference; hooked shows the cost of an attached Branch hook.
func emuThroughputBench(b *testing.B, run func(m *emu.Machine) (uint64, error)) {
	p := prog.ExampleTripleNested(100, 40, 30)
	m := emu.New(p, 0)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m.Reset()
		n, err := run(m)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "M-inst/s")
}

// BenchmarkEmulatorFastPath measures the default Run loop — predecoded
// block batching with superblock-trace dispatch on hot heads.
func BenchmarkEmulatorFastPath(b *testing.B) {
	emuThroughputBench(b, func(m *emu.Machine) (uint64, error) {
		return m.RunToCompletion(1 << 40)
	})
}

// BenchmarkEmulatorSuperblock measures trace dispatch on a branchy
// diamond-loop kernel whose per-iteration path crosses four basic
// blocks — the shape superblock chaining exists for (the loop-nest
// kernel above is mostly back-to-back loop latches).
func BenchmarkEmulatorSuperblock(b *testing.B) {
	p := prog.ExampleDiamondLoop(200000)
	m := emu.New(p, 0)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m.Reset()
		n, err := m.RunToCompletion(1 << 40)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "M-inst/s")
}

// BenchmarkEmulatorHooked measures Run with a Branch hook attached
// (the profiled fast-forward mode).
func BenchmarkEmulatorHooked(b *testing.B) {
	emuThroughputBench(b, func(m *emu.Machine) (uint64, error) {
		var taken uint64
		m.Branch = func(from, to int64) { taken++ }
		return m.RunToCompletion(1 << 40)
	})
}

// BenchmarkEmulatorStepLoop measures the per-instruction Step loop: the
// predecoded step the detailed model's fetch stage and functional
// warming drive, one instruction at a time.
func BenchmarkEmulatorStepLoop(b *testing.B) {
	emuThroughputBench(b, func(m *emu.Machine) (uint64, error) {
		var n uint64
		for !m.Halted {
			if _, err := m.Step(); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	})
}

// BenchmarkKMeansCluster measures one fixed-k clustering of a
// BBV-shaped matrix (the pruned Lloyd + k-means++ inner loops).
func BenchmarkKMeansCluster(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	points := make([][]float64, 2000)
	for i := range points {
		row := make([]float64, 32)
		for j := 0; j < 8; j++ {
			row[rng.Intn(len(row))] = rng.Float64()
		}
		linalg.NormalizeL1(row)
		points[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.Cluster(points, 12, kmeans.Options{Seed: 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetailedSimulator measures the out-of-order model rate
// (the sim-outorder stand-in, configuration A).
func BenchmarkDetailedSimulator(b *testing.B) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m := emu.New(p, 0)
		sim := cpu.MustNew(config.BaseA())
		res, err := sim.Run(m, 200_000)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "M-inst/s")
}

// BenchmarkFunctionalWarming measures functional warming (cpu.Sim.Warm:
// the predecoded Step plus the cache and predictor updates) over tiny
// gzip under configuration A, run to halt. The machine and the context
// are built outside the timed region.
func BenchmarkFunctionalWarming(b *testing.B) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := emu.New(p, 0)
		sim := cpu.MustNew(config.BaseA())
		b.StartTimer()
		if err := sim.Warm(m, math.MaxUint64); err != nil {
			b.Fatal(err)
		}
		insts += m.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "M-inst/s")
}

// BenchmarkForkAndRestart measures what a sampled point costs around
// its warm spine under configuration B, the larger hierarchy: the spine
// warms over 64 Ki instructions of tiny gzip, forks into the detail
// context it keeps, which runs a 512-instruction lead-in and a
// 10,000-instruction window, and then restarts cold for the next point.
// Fork and restart rewrite only the cache sets touched since the last
// fork or since cold; fork-sets/op and reset-sets/op report how many.
// The machine is positioned outside the timed region.
func BenchmarkForkAndRestart(b *testing.B) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	start := emu.New(p, 0)
	if _, err := start.RunTo(context.Background(), 100_000); err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	spine := cpu.MustNew(config.SensitivityB())
	spine.Metrics = reg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := start.Clone()
		b.StartTimer()
		if err := spine.Warm(m, 1<<16); err != nil {
			b.Fatal(err)
		}
		fork, err := spine.Fork()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fork.RunWindow(m, 512, 10_000, 0); err != nil {
			b.Fatal(err)
		}
		spine.ResetCold()
	}
	b.ReportMetric(float64(reg.Counter("cpu.fork.sets").Value())/float64(b.N), "fork-sets/op")
	b.ReportMetric(float64(reg.Counter("cpu.reset.sets").Value())/float64(b.N), "reset-sets/op")
}

// BenchmarkBBVCollection measures fixed-interval profiling (emulation
// plus per-interval projection).
func BenchmarkBBVCollection(b *testing.B) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	proj := bbv.MustNewProjector(p.NumBlocks(), bbv.DefaultDims, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phase.CollectFixed(p, proj, bench.FineInterval(bench.SizeTiny)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansBIC measures the clustering stage with BIC model
// selection over Kmax=30, SimPoint-style.
func BenchmarkKMeansBIC(b *testing.B) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	proj := bbv.MustNewProjector(p.NumBlocks(), bbv.DefaultDims, 1)
	tr, err := phase.CollectFixed(p, proj, bench.FineInterval(bench.SizeTiny))
	if err != nil {
		b.Fatal(err)
	}
	vecs := tr.Vectors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.Best(vecs, 30, kmeans.Options{Seed: 1, SampleCap: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// harnessFine and harnessCoarse are the selection policy every Table
// II, bench and service run uses, at tiny scale and seed 1, so the
// selection benchmarks time the selections those runs make.
func harnessFine() simpoint.Config {
	return experiments.FineConfig(bench.FineInterval(bench.SizeTiny), 1, nil)
}

func harnessCoarse() coasts.Config {
	return coasts.Config{Kmax: experiments.CoarseKmax, Seed: 1}
}

// BenchmarkSimPointSelect measures the full fine-grained pipeline.
func BenchmarkSimPointSelect(b *testing.B) {
	spec, err := bench.ByName("lucas")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	cfg := harnessFine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := simpoint.Select(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoastsSelect measures the coarse-grained pipeline
// (boundary profiling, iteration metrics, Kmax=3 clustering).
func BenchmarkCoastsSelect(b *testing.B) {
	spec, err := bench.ByName("lucas")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := coasts.Select(p, harnessCoarse()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiLevelSelect measures the complete two-level pipeline.
func BenchmarkMultiLevelSelect(b *testing.B) {
	spec, err := bench.ByName("lucas")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	cfg := multilevel.Config{Coarse: harnessCoarse(), Fine: harnessFine()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := multilevel.Select(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanExecution measures executing a multi-level plan
// (functional fast-forward plus detailed points with warmup).
func BenchmarkPlanExecution(b *testing.B) {
	spec, err := bench.ByName("lucas")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, err := multilevel.Select(p, multilevel.Config{Coarse: harnessCoarse(), Fine: harnessFine()})
	if err != nil {
		b.Fatal(err)
	}
	opts := pipeline.ExecOptions{Warmup: 10 * bench.FineInterval(bench.SizeTiny), DetailLeadIn: 512}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.ExecutePlan(p, plan, config.BaseA(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanExecutionWorkers sweeps the same multi-level plan
// across the ExecutePlan worker curve, so the cost-aware chunk
// scheduler's parallel-is-never-a-loss property is measurable from
// `go test -bench` alone. Its finite warm windows reach behind earlier
// points, so scratch execution rewinds to spine starts; a chunk the
// partitioner cuts walks its machine forward from instruction 0, the
// startup the scheduler's cost model assumes.
func BenchmarkPlanExecutionWorkers(b *testing.B) {
	spec, err := bench.ByName("lucas")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, err := multilevel.Select(p, multilevel.Config{Coarse: harnessCoarse(), Fine: harnessFine()})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := pipeline.ExecOptions{
				Warmup:       10 * bench.FineInterval(bench.SizeTiny),
				DetailLeadIn: 512,
				Workers:      workers,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.ExecutePlan(p, plan, config.BaseA(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationColdStart contrasts cold-start point execution
// (the paper's plain fast-forward) with the warmed policy, reporting
// both CPI deviations.
func BenchmarkAblationColdStart(b *testing.B) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, harnessFine())
	if err != nil {
		b.Fatal(err)
	}
	truth, err := mlpa.GroundTruth(p, config.BaseA())
	if err != nil {
		b.Fatal(err)
	}
	var coldDev, warmDev float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold, err := pipeline.ExecutePlan(p, plan, config.BaseA(), pipeline.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		warm, err := pipeline.ExecutePlan(p, plan, config.BaseA(), pipeline.ExecOptions{
			Warmup: 10 * bench.FineInterval(bench.SizeTiny), DetailLeadIn: 512,
		})
		if err != nil {
			b.Fatal(err)
		}
		coldDev, _, _ = pipeline.Deviations(cold, truth)
		warmDev, _, _ = pipeline.Deviations(warm, truth)
	}
	b.ReportMetric(coldDev*100, "cold-cpi-dev-pct")
	b.ReportMetric(warmDev*100, "warm-cpi-dev-pct")
}

// BenchmarkAblationEarlySP contrasts the EarlySP variant's last-point
// position against standard SimPoint's.
func BenchmarkAblationEarlySP(b *testing.B) {
	spec, err := bench.ByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	base := harnessFine()
	early := base
	early.EarlySP = true
	var stdPos, earlyPos float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		std, _, _, err := simpoint.Select(p, base)
		if err != nil {
			b.Fatal(err)
		}
		ep, _, _, err := simpoint.Select(p, early)
		if err != nil {
			b.Fatal(err)
		}
		stdPos = std.LastPosition()
		earlyPos = ep.LastPosition()
	}
	b.ReportMetric(stdPos*100, "standard-lastpos-pct")
	b.ReportMetric(earlyPos*100, "earlysp-lastpos-pct")
}

// BenchmarkVLISelect measures the variable-length-interval variant.
func BenchmarkVLISelect(b *testing.B) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	cfg := vli.Config{TargetLen: bench.FineInterval(bench.SizeTiny), Kmax: 30, Seed: 1, SampleCap: 2000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := vli.Select(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmartsSelect measures systematic statistical sampling plan
// construction.
func BenchmarkSmartsSelect(b *testing.B) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	fine := bench.FineInterval(bench.SizeTiny)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smarts.Select(p, smarts.Config{UnitLen: fine, Period: fine * 25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRoundTrip measures building a plan's checkpoint
// set plus checkpoint-backed execution of its points under
// configuration A.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	spec, err := bench.ByName("crafty")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := coasts.Select(p, harnessCoarse())
	if err != nil {
		b.Fatal(err)
	}
	opts := pipeline.ExecOptions{Warmup: 1 << 16, DetailLeadIn: 512}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := pipeline.BuildCheckpointSet(p, plan, opts)
		if err != nil {
			b.Fatal(err)
		}
		ckptOpts := opts
		ckptOpts.Checkpoints = set
		if _, err := pipeline.ExecutePlan(p, plan, config.BaseA(), ckptOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateMiss has the shape of a service estimate miss whose
// plan and checkpoint set are cached: checkpoint-backed execution of
// tiny gzip's COASTS plan under configuration B, the larger hierarchy,
// at the service's policy and one worker, run back to back.
// -benchmem's B/op and allocs/op show whether a call still builds a
// cache hierarchy (2.3 MB under B) instead of reusing the detailed
// contexts an earlier call released.
func BenchmarkEstimateMiss(b *testing.B) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := coasts.Select(p, harnessCoarse())
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.CheckpointExec()
	opts.Workers = 1
	if opts.Checkpoints, err = pipeline.BuildCheckpointSet(p, plan, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.ExecutePlan(p, plan, config.SensitivityB(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhasePrediction measures runtime phase predictors over the
// suite's coarse phase sequences, reporting accuracies.
func BenchmarkPhasePrediction(b *testing.B) {
	spec, err := bench.ByName("equake")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	_, tr, km, err := coasts.Select(p, coasts.Config{Seed: 1, Kmax: 8})
	if err != nil {
		b.Fatal(err)
	}
	seq, err := phasepred.PhaseSequence(tr, km)
	if err != nil {
		b.Fatal(err)
	}
	var last, markov, rle float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = phasepred.Evaluate(seq, phasepred.NewLast())
		markov = phasepred.Evaluate(seq, phasepred.NewMarkov(2))
		rle = phasepred.Evaluate(seq, phasepred.NewRLEMarkov())
	}
	b.ReportMetric(last*100, "last-accuracy-pct")
	b.ReportMetric(markov*100, "markov2-accuracy-pct")
	b.ReportMetric(rle*100, "rle-accuracy-pct")
}
