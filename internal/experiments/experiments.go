// Package experiments reproduces the paper's evaluation: Figure 1
// (phase trajectories), Figures 3 and 4 (speedups of COASTS and
// multi-level sampling over 10M SimPoint), Table II (metric
// deviations under both Table I configurations) and Table III
// (simulation-point statistics).
package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/coasts"
	"mlpa/internal/cpu"
	"mlpa/internal/linalg"
	"mlpa/internal/multilevel"
	"mlpa/internal/obs"
	"mlpa/internal/parallel"
	"mlpa/internal/pipeline"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
	"mlpa/internal/stats"
)

// Method names in table order.
const (
	MethodCoasts     = coasts.MethodName
	MethodSimPoint   = simpoint.MethodName
	MethodMultiLevel = multilevel.MethodName
)

// Methods lists the three compared methods in the paper's table order.
func Methods() []string {
	return []string{MethodCoasts, MethodSimPoint, MethodMultiLevel}
}

// Options configures a study.
type Options struct {
	// Size selects the suite scale (default bench.SizeSmall).
	Size bench.Size
	// Seed drives all randomized stages (default 1).
	Seed int64
	// TimeModel converts instruction splits to simulation time
	// (default sampling.SimpleScalarRates; see DESIGN.md).
	TimeModel sampling.TimeModel
	// Benchmarks restricts the suite (nil = all).
	Benchmarks []string
	// CoarseKmax is COASTS's Kmax (default CoarseKmax, the paper's 3).
	CoarseKmax int
	// Obs, if non-nil, threads the observability runtime through every
	// stage: selection spans, per-point journal records, deviation
	// events and progress logging.
	Obs *obs.Runtime
	// Workers caps the study's fan-out: how many benchmarks select or
	// simulate concurrently (0 = GOMAXPROCS). Results are deterministic
	// for every value — stages merge in suite order. Within
	// suite-parallel regions each plan executes its points sequentially
	// so the machine is not oversubscribed; single-benchmark helpers
	// (the ablation sweeps) instead pass Workers down to
	// pipeline.ExecutePlan to parallelize across points.
	Workers int
	// Ctx, when non-nil, cancels the study between and inside stages;
	// the first stage to observe cancellation aborts the run with the
	// context's error. Nil means context.Background().
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TimeModel.DetailedRate == 0 {
		o.TimeModel = sampling.SimpleScalarRates
	}
	if o.CoarseKmax == 0 {
		o.CoarseKmax = CoarseKmax
	}
	return o
}

func (o Options) fineConfig() simpoint.Config {
	return FineConfig(bench.FineInterval(o.Size), o.Seed, o.Obs)
}

func (o Options) coarseConfig() coasts.Config {
	return coasts.Config{Kmax: o.CoarseKmax, Seed: o.Seed, Obs: o.Obs}
}

func (o Options) specs() ([]*bench.Spec, error) {
	if len(o.Benchmarks) == 0 {
		return bench.Suite(), nil
	}
	var out []*bench.Spec
	for _, name := range o.Benchmarks {
		s, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Plans carries the three methods' sampling plans for one benchmark.
type Plans struct {
	Spec       *bench.Spec
	SimPoint   *sampling.Plan
	Coasts     *sampling.Plan
	MultiLevel *sampling.Plan
}

// ByMethod returns the plan for a method name.
func (p *Plans) ByMethod(method string) (*sampling.Plan, error) {
	switch method {
	case MethodSimPoint:
		return p.SimPoint, nil
	case MethodCoasts:
		return p.Coasts, nil
	case MethodMultiLevel:
		return p.MultiLevel, nil
	}
	return nil, fmt.Errorf("experiments: unknown method %q", method)
}

// Study holds selected plans for a benchmark set; the table and
// figure generators derive their results from it.
type Study struct {
	Opts  Options
	Plans []*Plans
}

// NewStudy runs the profiling and point-selection stages of all three
// methods over the configured benchmarks.
func NewStudy(o Options) (*Study, error) {
	o = o.withDefaults()
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	st := &Study{Opts: o, Plans: make([]*Plans, len(specs))}
	span := o.Obs.StartSpan("experiments.select", obs.KV("benchmarks", len(specs)))
	defer span.End()
	// Selection is independent and deterministic per benchmark; run it
	// across the suite in parallel.
	err = o.forEach("experiments.select", len(specs), func(ctx context.Context, i int) error {
		spec := specs[i]
		bspan := span.StartSpan("experiments.select_benchmark", obs.KV("benchmark", spec.Name))
		defer bspan.End()
		p, err := spec.Program(o.Size)
		if err != nil {
			return err
		}
		sp, _, _, err := simpoint.Select(p, o.fineConfig())
		if err != nil {
			return fmt.Errorf("experiments: simpoint on %s: %w", spec.Name, err)
		}
		co, _, _, err := coasts.Select(p, o.coarseConfig())
		if err != nil {
			return fmt.Errorf("experiments: coasts on %s: %w", spec.Name, err)
		}
		// The multi-level first level is the COASTS plan just selected.
		ml, _, err := multilevel.Resample(p, co, multilevel.Config{Fine: o.fineConfig(), Obs: o.Obs})
		if err != nil {
			return fmt.Errorf("experiments: multilevel on %s: %w", spec.Name, err)
		}
		st.Plans[i] = &Plans{Spec: spec, SimPoint: sp, Coasts: co, MultiLevel: ml}
		o.Obs.Logf("selected points for %s: simpoint %d, coasts %d, multilevel %d",
			spec.Name, len(sp.Points), len(co.Points), len(ml.Points))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// execOpts is the plan-execution policy every Table II evaluation
// runs under. The suite already fans out benchmark-wide, so each
// plan's points run sequentially (the machine is not oversubscribed).
func (st *Study) execOpts(ctx context.Context) pipeline.ExecOptions {
	opts := HarnessExec()
	opts.Obs, opts.Workers, opts.Ctx = st.Opts.Obs, 1, ctx
	return opts
}

// ablationExecOpts is the plan-execution policy of the single-benchmark
// ablations: the harness policy with the caller's journal and context,
// and Workers passed down to parallelize across points.
func (o Options) ablationExecOpts() pipeline.ExecOptions {
	opts := HarnessExec()
	opts.Obs, opts.Workers, opts.Ctx = o.Obs, o.Workers, o.Ctx
	return opts
}

// ctx returns the study's context (never nil).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// forEach fans fn out over the study's worker budget, reporting live
// completion under the named progress stage. Work items must be
// independent; result slots are written by index, so output order
// stays deterministic. The first error (by lowest index, the same one
// a sequential loop would surface) cancels the remaining work and is
// returned; external cancellation through Options.Ctx surfaces as the
// context's error.
func (o Options) forEach(stage string, n int, fn func(ctx context.Context, i int) error) error {
	return parallel.ForEachOpt(o.ctx(), o.Workers, n, fn,
		parallel.ForEachOptions{Metrics: o.Obs.Metrics(), Stage: o.Obs.Progress().Stage(stage)})
}

// SpeedupRow is one bar of Figure 3 or 4.
type SpeedupRow struct {
	Benchmark string
	Speedup   float64
}

// SpeedupResult is a full speedup figure.
type SpeedupResult struct {
	Title   string
	Rows    []SpeedupRow
	GeoMean float64
}

func (st *Study) speedups(title, method string) (*SpeedupResult, error) {
	res := &SpeedupResult{Title: title}
	var vals []float64
	for _, pl := range st.Plans {
		target, err := pl.ByMethod(method)
		if err != nil {
			return nil, err
		}
		s := st.Opts.TimeModel.Speedup(target, pl.SimPoint)
		res.Rows = append(res.Rows, SpeedupRow{Benchmark: pl.Spec.Name, Speedup: s})
		vals = append(vals, s)
	}
	res.GeoMean = stats.GeoMean(vals)
	return res, nil
}

// Fig3 reproduces Figure 3: speedup of COASTS over 10M SimPoint
// (paper geometric mean: 6.78x).
func (st *Study) Fig3() (*SpeedupResult, error) {
	return st.speedups("Fig. 3: speedup of COASTS over SimPoint", MethodCoasts)
}

// Fig4 reproduces Figure 4: speedup of multi-level sampling over 10M
// SimPoint (paper geometric mean: 14.04x; gcc ~0.97x).
func (st *Study) Fig4() (*SpeedupResult, error) {
	return st.speedups("Fig. 4: speedup of multi-level sampling over SimPoint", MethodMultiLevel)
}

// Table3Row is one line of Table III. All columns use geometric means
// over the suite, the paper's AVG convention; zero fractions are
// floored at 0.01% so benchmarks whose plans need no fast-forwarding
// at all (contiguous points from instruction 0) stay representable.
type Table3Row struct {
	Method            string
	MeanIntervalSize  float64
	MeanSampleNumber  float64
	MeanDetailPct     float64
	MeanFunctionalPct float64
}

// geoFloor is the smallest fraction Table III's geometric means admit.
const geoFloor = 1e-4

// Table3 reproduces Table III (simulation-point statistics).
func (st *Study) Table3() ([]Table3Row, error) {
	var out []Table3Row
	for _, method := range []string{MethodCoasts, MethodSimPoint, MethodMultiLevel} {
		var sizes, counts, det, fun []float64
		for _, pl := range st.Plans {
			p, err := pl.ByMethod(method)
			if err != nil {
				return nil, err
			}
			sizes = append(sizes, p.MeanPointLen())
			counts = append(counts, float64(len(p.Points)))
			det = append(det, math.Max(p.DetailedFraction(), geoFloor))
			fun = append(fun, math.Max(p.FunctionalFraction(), geoFloor))
		}
		out = append(out, Table3Row{
			Method:            method,
			MeanIntervalSize:  stats.GeoMean(sizes),
			MeanSampleNumber:  stats.GeoMean(counts),
			MeanDetailPct:     stats.GeoMean(det),
			MeanFunctionalPct: stats.GeoMean(fun),
		})
	}
	return out, nil
}

// DevCell is one (metric, method, config) cell of Table II.
type DevCell struct {
	Avg        float64
	Worst      float64
	WorstBench string
}

// Table2Result maps metric -> method -> config name -> deviations.
type Table2Result struct {
	Metrics []string // "CPI", "L1 Cache Hit", "L2 Cache Hit"
	Cells   map[string]map[string]map[string]DevCell
	// Runs holds every evaluation behind the cells, in suite, config,
	// method order.
	Runs []Table2Run
}

// Table2Run is one (benchmark, configuration, method) evaluation: the
// plan's estimate, the ground truth it is judged against, the ground
// truth's wall time, and the relative CPI, L1 and L2 hit-rate
// deviations.
type Table2Run struct {
	Benchmark string
	Config    string
	Method    string
	Est       *pipeline.Estimate
	Truth     cpu.Result
	TruthWall time.Duration
	CPIDev    float64
	L1Dev     float64
	L2Dev     float64
}

// Table2 reproduces Table II: it runs ground-truth full detailed
// simulations and executes every method's plan under each supplied
// configuration, reporting average and worst relative deviations of
// CPI and cache hit rates.
func (st *Study) Table2(configs []cpu.Config) (*Table2Result, error) {
	// The ground-truth and sampled simulations are independent per
	// (benchmark, configuration) pair; run the benchmarks in parallel
	// with each worker covering every configuration and method for its
	// benchmark, and aggregate in suite order so worst cases and averages
	// stay deterministic.
	span := st.Opts.Obs.StartSpan("experiments.table2", obs.KV("configs", len(configs)))
	defer span.End()
	runs := make([][]Table2Run, len(st.Plans))
	err := st.Opts.forEach("experiments.table2", len(st.Plans), func(ctx context.Context, i int) error {
		pl := st.Plans[i]
		bspan := span.StartSpan("experiments.table2_benchmark", obs.KV("benchmark", pl.Spec.Name))
		defer bspan.End()
		p, err := pl.Spec.Program(st.Opts.Size)
		if err != nil {
			return err
		}
		for _, cfg := range configs {
			tspan := bspan.StartSpan("experiments.ground_truth", obs.KV("config", cfg.Name))
			truth, truthWall, err := pipeline.FullDetailed(p, cfg)
			tspan.End()
			if err != nil {
				return err
			}
			for _, method := range Methods() {
				plan, err := pl.ByMethod(method)
				if err != nil {
					return err
				}
				est, err := pipeline.ExecutePlan(p, plan, cfg, st.execOpts(ctx))
				if err != nil {
					return fmt.Errorf("experiments: %s/%s under config %s: %w", pl.Spec.Name, method, cfg.Name, err)
				}
				r := Table2Run{Benchmark: pl.Spec.Name, Config: cfg.Name, Method: method,
					Est: est, Truth: truth, TruthWall: truthWall}
				r.CPIDev, r.L1Dev, r.L2Dev = pipeline.Deviations(est, truth)
				st.Opts.Obs.Emit("deviation", map[string]any{
					"benchmark": pl.Spec.Name,
					"method":    method,
					"config":    cfg.Name,
					"cpi_dev":   r.CPIDev,
					"l1_dev":    r.L1Dev,
					"l2_dev":    r.L2Dev,
					"true_cpi":  truth.CPI(),
					"est_cpi":   est.CPI,
				})
				st.Opts.Obs.Logf("table2 %s/%s config %s: CPI dev %.4f%% (est %.4f true %.4f, truth wall %v)",
					pl.Spec.Name, method, cfg.Name, 100*r.CPIDev, est.CPI, truth.CPI(), truthWall.Round(time.Millisecond))
				runs[i] = append(runs[i], r)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Table2Result{Metrics: []string{"CPI", "L1 Cache Hit", "L2 Cache Hit"}}
	for _, br := range runs {
		res.Runs = append(res.Runs, br...)
	}
	// Each cell aggregates its benchmarks in suite order, so a
	// worst-case tie resolves to the benchmark the suite lists first.
	nm := len(Methods())
	res.Cells = make(map[string]map[string]map[string]DevCell)
	for di, metric := range res.Metrics {
		res.Cells[metric] = make(map[string]map[string]DevCell)
		for mi, method := range Methods() {
			res.Cells[metric][method] = make(map[string]DevCell)
			for ci, cfg := range configs {
				var a stats.Agg
				for _, br := range runs {
					r := br[ci*nm+mi]
					a.Add(r.Benchmark, [...]float64{r.CPIDev, r.L1Dev, r.L2Dev}[di])
				}
				worst, bench := a.Worst()
				res.Cells[metric][method][cfg.Name] = DevCell{Avg: a.Avg(), Worst: worst, WorstBench: bench}
			}
		}
	}
	return res, nil
}

// Fig1Result carries the two phase trajectories of Figure 1.
type Fig1Result struct {
	Benchmark string
	// Fine is the first principal component of each fixed-length
	// interval's BBV; FineMarks flags selected simulation points.
	Fine      []float64
	FineMarks []bool
	// Coarse is the same for iteration intervals under COASTS.
	Coarse      []float64
	CoarseMarks []bool
}

// Fig1 reproduces Figure 1 for a benchmark (the paper uses lucas):
// BBV trajectories under fine and coarse granularity with the
// selected simulation points marked.
func Fig1(o Options, benchmark string) (*Fig1Result, error) {
	o = o.withDefaults()
	p, err := bench.Program(benchmark, o.Size)
	if err != nil {
		return nil, err
	}

	fineTrace, err := simpoint.Profile(p, o.fineConfig())
	if err != nil {
		return nil, err
	}
	finePlan, _, err := simpoint.SelectFromTrace(fineTrace, o.fineConfig())
	if err != nil {
		return nil, err
	}
	finePCA, err := linalg.FitPCA(fineTrace.Vectors())
	if err != nil {
		return nil, err
	}

	coarsePlan, coarseTrace, _, err := coasts.Select(p, o.coarseConfig())
	if err != nil {
		return nil, err
	}
	coarsePCA, err := linalg.FitPCA(coarseTrace.Vectors())
	if err != nil {
		return nil, err
	}

	res := &Fig1Result{
		Benchmark:   benchmark,
		Fine:        finePCA.FirstComponent(fineTrace.Vectors()),
		FineMarks:   make([]bool, len(fineTrace.Intervals)),
		Coarse:      coarsePCA.FirstComponent(coarseTrace.Vectors()),
		CoarseMarks: make([]bool, len(coarseTrace.Intervals)),
	}
	for _, pt := range finePlan.Points {
		res.FineMarks[pt.Interval] = true
	}
	for _, pt := range coarsePlan.Points {
		res.CoarseMarks[pt.Interval] = true
	}
	return res, nil
}

// Roughness quantifies Figure 1's visual contrast: the mean absolute
// step between consecutive trajectory samples, normalized by the
// trajectory's range. Fine-grained trajectories are "chaotic with
// violent changes" (high roughness); coarse ones are smooth.
func Roughness(ys []float64) float64 {
	if len(ys) < 2 {
		return 0
	}
	minY, maxY := ys[0], ys[0]
	var step float64
	for i := 1; i < len(ys); i++ {
		d := ys[i] - ys[i-1]
		if d < 0 {
			d = -d
		}
		step += d
		if ys[i] < minY {
			minY = ys[i]
		}
		if ys[i] > maxY {
			maxY = ys[i]
		}
	}
	if maxY == minY {
		return 0
	}
	return step / float64(len(ys)-1) / (maxY - minY)
}
