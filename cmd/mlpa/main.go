// Command mlpa regenerates the paper's evaluation artifacts:
//
//	mlpa fig1   [-bench lucas]      Figure 1 phase trajectories
//	mlpa fig3                       Figure 3: COASTS speedup over SimPoint
//	mlpa fig4                       Figure 4: multi-level speedup over SimPoint
//	mlpa table2 [-config A,B]       Table II: metric deviations
//	mlpa table3                     Table III: simulation-point statistics
//	mlpa points [-bench name]       selected simulation points per method
//	mlpa motivation                 Section III coarse-phase analysis
//	mlpa ablation [-bench name]     design-choice sweeps (granularity, Kmax, ...)
//	mlpa ckpt save -dir d [-bench -method]  build + persist a portable checkpoint set
//	mlpa ckpt info -dir d                verify a set's integrity and describe it
//	mlpa ckpt exec -dir d [-config A,B]  zero-fast-forward estimates from a set
//	mlpa bench [-config A,B -dir d]  machine-readable BENCH_<date>.json harness
//	mlpa bench -compare old.json new.json  gate on significant perf regressions
//	mlpa inspect <run.jsonl>        render a recorded run journal
//	mlpa analyze [-bench name | file.s] static analysis: verifier, CFG, dominators, loops
//	mlpa analyze -dataflow ...      add liveness: live sets, dead writes, predecode cross-check
//	mlpa sim [-mode -max -config] [-bench name | file.s]  run one program: functional, detailed or warm
//	mlpa bbv [-granularity -pca] [-bench name | file.s]  per-interval BBV signatures as CSV
//	mlpa serve [-addr host:port]    sampling-as-a-service HTTP daemon (docs/SERVICE.md)
//	mlpa loadtest [-addr -clients -requests -dup -min-hit-rate] load harness for serve
//	mlpa all                        figures and tables above
//
// Shared flags: -size tiny|small|ref, -seed N, -benchmarks a,b,c,
// -rates simplescalar|measured, -workers N (parallel simulation fan-out
// across benchmarks and simulation points; 0 = GOMAXPROCS, 1 =
// sequential; results are bit-identical for every worker count).
// Commands that run one program (fig1, points, ablation, ckpt save,
// analyze, sim, bbv) take it from -bench; analyze, sim and bbv also
// accept an assembly file as the positional argument, which takes
// precedence.
//
// Observability flags (every command): -journal file.jsonl records a
// structured run journal (manifest, stage spans, per-point records,
// estimates, deviations) that `mlpa inspect` renders; -metrics file
// dumps the metrics registry as JSON on exit (- for stderr); -v logs
// stage progress to stderr; -serve addr exposes the run live over HTTP
// (/metrics in Prometheus text or JSON, /progress per-stage completion,
// and the pprof mux under /debug/pprof/) without perturbing results;
// -sample 5s streams periodic metrics_sample records to the journal;
// -cpuprofile/-memprofile write runtime profiles. See
// docs/OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/experiments"
	"mlpa/internal/obs"
	"mlpa/internal/pipeline"
	"mlpa/internal/prog"
	"mlpa/internal/report"
	"mlpa/internal/sampling"
	"mlpa/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mlpa:", err)
		os.Exit(1)
	}
}

type flags struct {
	size       string
	seed       int64
	benchmarks string
	configs    string
	benchmark  string
	rates      string
	method     string
	dir        string
	dynamic    bool
	dataflow   bool
	workers    int

	// sim and bbv surface (see cmd/mlpa/sim.go and cmd/mlpa/bbv.go).
	mode        string
	maxInsts    uint64
	granularity string
	pca         int

	// Observability surface.
	journal    string
	metrics    string
	verbose    bool
	serveAddr  string
	sample     time.Duration
	cpuprofile string
	memprofile string

	// compare switches `bench` into report-comparison mode
	// (`mlpa bench -compare old.json new.json`).
	compare bool
	// gateParallel makes `bench` fail after writing its report when the
	// micro section's ExecutePlan wall at workers=4 exceeds workers=1 —
	// the parallel-is-never-a-loss CI gate.
	gateParallel bool

	// serve/loadtest surface (see cmd/mlpa/serve.go and docs/SERVICE.md).
	addr           string
	requestWorkers int
	requestTimeout time.Duration
	drainTimeout   time.Duration
	endpoint       string
	clients        int
	requests       int
	dup            float64
	minHitRate     float64
	report         string

	// rt is the observability runtime wired by setupObs; nil-safe, so
	// commands use it unconditionally.
	rt *obs.Runtime
	// ctx is cancelled on SIGINT/SIGTERM so parallel simulation stages
	// abort cleanly; never nil after run() sets it up.
	ctx context.Context
	// args are the positional arguments after the flags (inspect).
	args []string
}

func parseFlags(cmd string, args []string) (*flags, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	f := &flags{}
	fs.StringVar(&f.size, "size", "small", "suite scale: tiny, small or ref")
	fs.Int64Var(&f.seed, "seed", 1, "random seed for projection and clustering")
	fs.StringVar(&f.benchmarks, "benchmarks", "", "comma-separated benchmark subset (default: all)")
	fs.StringVar(&f.configs, "config", "A,B", "Table I configurations for table2, bench, ckpt exec and sim")
	fs.StringVar(&f.benchmark, "bench", "lucas", "benchmark for fig1, points, ablation, ckpt save, analyze, sim and bbv")
	fs.StringVar(&f.rates, "rates", "simplescalar", "time model: simplescalar or measured")
	fs.StringVar(&f.method, "method", "multilevel", "sampling method for ckpt save and loadtest: coasts, simpoint or multilevel")
	fs.StringVar(&f.dir, "dir", "", "checkpoint set directory (ckpt); output directory for BENCH_<date>.json (bench)")
	fs.BoolVar(&f.dynamic, "dynamic", false, "analyze: also profile dynamically and cross-check against the static forest")
	fs.BoolVar(&f.dataflow, "dataflow", false, "analyze: print per-block live sets, statically-dead writes and the predecode cross-check")
	fs.IntVar(&f.workers, "workers", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = sequential; results are identical for every value)")
	fs.StringVar(&f.mode, "mode", "detailed", "sim: functional, detailed, or warm (cache/branch stats without timing)")
	fs.Uint64Var(&f.maxInsts, "max", 0, "sim: instruction budget (0 = run to completion)")
	fs.StringVar(&f.granularity, "granularity", "fine", "bbv: fine (fixed-length) or coarse (loop iterations)")
	fs.IntVar(&f.pca, "pca", 0, "bbv: emit only the first N principal components (0 = raw signature)")
	fs.StringVar(&f.journal, "journal", "", "write a JSONL run journal to this file (see `mlpa inspect`)")
	fs.StringVar(&f.metrics, "metrics", "", "write a JSON metrics-registry snapshot to this file on exit (- for stderr)")
	fs.BoolVar(&f.verbose, "v", false, "log stage progress to stderr")
	fs.StringVar(&f.serveAddr, "serve", "", "serve live telemetry (/metrics, /progress, /debug/pprof/) on this address (e.g. localhost:8080)")
	fs.DurationVar(&f.sample, "sample", 0, "stream periodic metrics_sample records to the journal (or stderr without -journal) at this interval")
	fs.BoolVar(&f.compare, "compare", false, "bench: compare two BENCH_*.json reports and fail on significant regressions")
	fs.BoolVar(&f.gateParallel, "gate-parallel", false, "bench: fail if the micro plan wall at workers=4 exceeds workers=1 (small noise allowance)")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.addr, "addr", defaultServeAddr, "serve: listen address; loadtest: daemon address to target")
	fs.IntVar(&f.requestWorkers, "request-workers", 1, "serve: parallel workers per admitted execution (results are identical for every value)")
	fs.DurationVar(&f.requestTimeout, "request-timeout", 2*time.Minute, "serve/loadtest: per-request computation timeout")
	fs.DurationVar(&f.drainTimeout, "drain-timeout", defaultDrainTimeout, "serve: how long shutdown waits for in-flight requests")
	fs.StringVar(&f.endpoint, "endpoint", "plan", "loadtest: API endpoint to exercise (analyze, plan or estimate)")
	fs.IntVar(&f.clients, "clients", 4, "loadtest: concurrent requesters")
	fs.IntVar(&f.requests, "requests", 64, "loadtest: total requests to issue")
	fs.Float64Var(&f.dup, "dup", 0.75, "loadtest: duplicate-traffic fraction in [0,1)")
	fs.Float64Var(&f.minHitRate, "min-hit-rate", 0, "loadtest: fail unless (hits+coalesced)/ok reaches this fraction")
	fs.StringVar(&f.report, "report", "", "loadtest: write the JSON load report to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	f.args = fs.Args()
	return f, nil
}

func (f *flags) options() (experiments.Options, error) {
	size, err := bench.ParseSize(f.size)
	if err != nil {
		return experiments.Options{}, err
	}
	o := experiments.Options{Size: size, Seed: f.seed, Obs: f.rt, Workers: f.workers, Ctx: f.ctx}
	if f.benchmarks != "" {
		o.Benchmarks = strings.Split(f.benchmarks, ",")
	}
	switch f.rates {
	case "", "simplescalar":
		o.TimeModel = sampling.SimpleScalarRates
	case "measured":
		p, err := bench.Program("gzip", size)
		if err != nil {
			return o, err
		}
		tm, err := pipeline.MeasuredRates(p, config.BaseA(), 0)
		if err != nil {
			return o, err
		}
		fmt.Printf("measured rates: detailed %.2f M inst/s, functional %.2f M inst/s\n",
			tm.DetailedRate/1e6, tm.FunctionalRate/1e6)
		o.TimeModel = tm
	default:
		return o, fmt.Errorf("unknown rates %q", f.rates)
	}
	return o, nil
}

// loadProgram resolves the one program analyze, sim and bbv run: an
// assembly file given as the positional argument takes precedence over
// the -bench suite benchmark at -size. Flag parsing stops at that file,
// so anything after it is refused rather than silently ignored.
func loadProgram(f *flags) (*prog.Program, error) {
	if len(f.args) > 1 {
		return nil, fmt.Errorf("unexpected arguments after %s: %q (flags go before the file)", f.args[0], f.args[1:])
	}
	if len(f.args) > 0 {
		path := f.args[0]
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return prog.Assemble(programName(path), string(src))
	}
	size, err := bench.ParseSize(f.size)
	if err != nil {
		return nil, err
	}
	return bench.Program(f.benchmark, size)
}

// programName names the program an assembly file holds after the
// file, without its directory or extension.
func programName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}

func (f *flags) cpuConfigs() ([]cpu.Config, error) {
	var out []cpu.Config
	for _, name := range strings.Split(f.configs, ",") {
		cfg, err := config.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

func run(args []string) (err error) {
	if len(args) == 0 {
		return fmt.Errorf("usage: mlpa <fig1|fig3|fig4|table2|table3|points|motivation|ablation|ckpt|bench|inspect|analyze|sim|bbv|serve|loadtest|all> [flags]")
	}
	cmd := args[0]
	fargs := args[1:]
	// ckpt takes its subcommand before the flags (mlpa ckpt save -dir d);
	// lift it out so the flag parser sees only flags.
	var ckptSub string
	if cmd == "ckpt" && len(fargs) > 0 && !strings.HasPrefix(fargs[0], "-") {
		ckptSub = fargs[0]
		fargs = fargs[1:]
	}
	f, err := parseFlags(cmd, fargs)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	f.ctx = ctx
	if cmd == "inspect" {
		// inspect only reads an existing journal; no run to observe.
		return runInspect(f)
	}
	cleanup, err := setupObs(f, cmd, manifestBenchmark(f, cmd, ckptSub))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := cleanup(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	switch cmd {
	case "fig1":
		return runFig1(f)
	case "fig3", "fig4", "table3":
		return withStudy(f, func(st *experiments.Study) error {
			switch cmd {
			case "fig3":
				return printSpeedups(st.Fig3())
			case "fig4":
				return printSpeedups(st.Fig4())
			default:
				return printTable3(st)
			}
		})
	case "table2":
		return withStudy(f, func(st *experiments.Study) error { return printTable2(f, st) })
	case "points":
		return runPoints(f)
	case "motivation":
		return runMotivation(f)
	case "ablation":
		return runAblations(f)
	case "ckpt":
		return runCkpt(f, ckptSub)
	case "bench":
		return runBench(f)
	case "analyze":
		return runAnalyze(f)
	case "sim":
		return runSim(f)
	case "bbv":
		return runBBV(f)
	case "serve":
		return runServe(f)
	case "loadtest":
		return runLoadtest(f)
	case "all":
		if err := runFig1(f); err != nil {
			return err
		}
		if err := runMotivation(f); err != nil {
			return err
		}
		return withStudy(f, func(st *experiments.Study) error {
			if err := printSpeedups(st.Fig3()); err != nil {
				return err
			}
			if err := printSpeedups(st.Fig4()); err != nil {
				return err
			}
			if err := printTable3(st); err != nil {
				return err
			}
			return printTable2(f, st)
		})
	}
	return fmt.Errorf("unknown command %q", cmd)
}

func withStudy(f *flags, fn func(*experiments.Study) error) error {
	o, err := f.options()
	if err != nil {
		return err
	}
	fmt.Printf("selecting simulation points (size=%s, seed=%d)...\n", f.size, f.seed)
	st, err := experiments.NewStudy(o)
	if err != nil {
		return err
	}
	return fn(st)
}

func printSpeedups(res *experiments.SpeedupResult, err error) error {
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Rows)+1)
	vals := make([]float64, 0, len(res.Rows)+1)
	for _, r := range res.Rows {
		names = append(names, r.Benchmark)
		vals = append(vals, r.Speedup)
	}
	names = append(names, "GEOMEAN")
	vals = append(vals, res.GeoMean)
	fmt.Println()
	fmt.Print(report.BarChart(res.Title, names, vals, "x", 50))
	return nil
}

func printTable3(st *experiments.Study) error {
	rows, err := st.Table3()
	if err != nil {
		return err
	}
	t := report.NewTable("\nTable III: simulation points statistics",
		"Algorithm", "Mean Interval Size (inst)", "Mean Sample Number", "Mean Detail", "Mean Functional")
	for _, r := range rows {
		t.AddRow(r.Method,
			fmt.Sprintf("%.0f", r.MeanIntervalSize),
			fmt.Sprintf("%.1f", r.MeanSampleNumber),
			stats.FormatPct(r.MeanDetailPct),
			stats.FormatPct(r.MeanFunctionalPct))
	}
	fmt.Print(t.String())
	return nil
}

func printTable2(f *flags, st *experiments.Study) error {
	configs, err := f.cpuConfigs()
	if err != nil {
		return err
	}
	fmt.Println("\nrunning ground-truth and sampled simulations for Table II...")
	res, err := st.Table2(configs)
	if err != nil {
		return err
	}
	headers := []string{"Metric", "Method"}
	for _, cfg := range configs {
		headers = append(headers, "Config "+cfg.Name+" AVG", "Config "+cfg.Name+" Worst")
	}
	t := report.NewTable("\nTable II: deviation comparison", headers...)
	for _, metric := range res.Metrics {
		for _, method := range experiments.Methods() {
			row := []string{metric, method}
			for _, cfg := range configs {
				cell := res.Cells[metric][method][cfg.Name]
				row = append(row, stats.FormatPct(cell.Avg),
					fmt.Sprintf("%s (%s)", stats.FormatPct(cell.Worst), cell.WorstBench))
			}
			t.AddRow(row...)
		}
	}
	fmt.Print(t.String())
	return nil
}

func runFig1(f *flags) error {
	o, err := f.options()
	if err != nil {
		return err
	}
	res, err := experiments.Fig1(o, f.benchmark)
	if err != nil {
		return err
	}
	fmt.Printf("\nFig. 1: first principal component of BBVs per interval, %s\n\n", res.Benchmark)
	fmt.Print(report.LinePlot(
		fmt.Sprintf("(a) fine-grained, %d fixed-length intervals (roughness %.3f)",
			len(res.Fine), experiments.Roughness(res.Fine)),
		res.Fine, res.FineMarks, 72, 14))
	fmt.Println()
	fmt.Print(report.LinePlot(
		fmt.Sprintf("(b) coarse-grained, %d iteration intervals (roughness %.3f)",
			len(res.Coarse), experiments.Roughness(res.Coarse)),
		res.Coarse, res.CoarseMarks, 72, 14))
	return nil
}

func runPoints(f *flags) error {
	o, err := f.options()
	if err != nil {
		return err
	}
	o.Benchmarks = []string{f.benchmark}
	st, err := experiments.NewStudy(o)
	if err != nil {
		return err
	}
	pl := st.Plans[0]
	for _, method := range experiments.Methods() {
		plan, err := pl.ByMethod(method)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("\n%s: %s simulation points (total %d instructions)", f.benchmark, method, plan.TotalInsts),
			"Start", "End", "Length", "Weight", "Level")
		for _, pt := range plan.Points {
			t.AddRow(
				fmt.Sprintf("%d", pt.Start),
				fmt.Sprintf("%d", pt.End),
				fmt.Sprintf("%d", pt.Len()),
				fmt.Sprintf("%.4f", pt.Weight),
				fmt.Sprintf("%d", pt.Level))
		}
		t.AddRow("detail", stats.FormatPct(plan.DetailedFraction()),
			"functional", stats.FormatPct(plan.FunctionalFraction()),
			fmt.Sprintf("last@%s", stats.FormatPct(plan.LastPosition())))
		fmt.Print(t.String())
	}
	return nil
}

// runMotivation reproduces the Section III analysis: coarse-grained
// phase counts and the position of the last coarse phase, per
// benchmark (paper: average phase count 3, average position ~17%).
func runMotivation(f *flags) error {
	o, err := f.options()
	if err != nil {
		return err
	}
	o.CoarseKmax = 8 // analysis uses a freer clustering than COASTS's 3
	st, err := experiments.NewStudy(o)
	if err != nil {
		return err
	}
	t := report.NewTable("\nSection III motivation: coarse-grained phase analysis",
		"Benchmark", "Coarse Phases", "Last Point Position", "Scripted Phases", "Scripted Position")
	var phases, pos []float64
	for _, pl := range st.Plans {
		k := len(pl.Coasts.Points)
		p := pl.Coasts.LastPosition()
		phases = append(phases, float64(k))
		pos = append(pos, p)
		t.AddRow(pl.Spec.Name,
			fmt.Sprintf("%d", k),
			stats.FormatPct(p),
			fmt.Sprintf("%d", pl.Spec.Phases),
			stats.FormatPct(pl.Spec.LastPhasePos))
	}
	t.AddRow("AVERAGE", fmt.Sprintf("%.1f", stats.ArithMean(phases)), stats.FormatPct(stats.ArithMean(pos)))
	fmt.Print(t.String())
	return nil
}

// runAblations prints the design-choice sweeps and comparisons:
// interval granularity (the Section III tradeoff), coarse Kmax, the
// re-sampling threshold, the projection dimension, the cold-start
// policy, EarlySP, variable-length intervals and SMARTS-style
// systematic sampling.
func runAblations(f *flags) error {
	o, err := f.options()
	if err != nil {
		return err
	}
	benchName := f.benchmark

	gran, err := experiments.GranularitySweep(o, benchName, []float64{0.25, 0.5, 1, 2, 4, 8, 16, 37.5})
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("\nAblation: interval granularity on %s (Section III tradeoff)", benchName),
		"Interval", "Points", "Detail", "Functional", "Last Pos", "Modeled Time")
	for _, r := range gran {
		t.AddRow(fmt.Sprintf("%d", r.IntervalLen),
			fmt.Sprintf("%d", r.Points),
			stats.FormatPct(r.DetailPct),
			stats.FormatPct(r.FunctionalPct),
			stats.FormatPct(r.LastPosition),
			fmt.Sprintf("%.2fs", r.ModeledTime))
	}
	fmt.Print(t.String())

	kmax, err := experiments.CoarseKmaxSweep(o, benchName, []int{1, 2, 3, 4, 6, 8})
	if err != nil {
		return err
	}
	t = report.NewTable(
		fmt.Sprintf("\nAblation: COASTS Kmax on %s (paper default 3)", benchName),
		"Kmax", "Points", "Detail", "Functional", "Last Pos", "Modeled Time")
	for _, r := range kmax {
		t.AddRow(fmt.Sprintf("%d", r.Kmax),
			fmt.Sprintf("%d", r.Points),
			stats.FormatPct(r.DetailPct),
			stats.FormatPct(r.FunctionalPct),
			stats.FormatPct(r.LastPosition),
			fmt.Sprintf("%.2fs", r.ModeledTime))
	}
	fmt.Print(t.String())

	thr, err := experiments.ThresholdSweep(o, benchName, []float64{0.25, 0.5, 1, 2, 4, 1000})
	if err != nil {
		return err
	}
	t = report.NewTable(
		fmt.Sprintf("\nAblation: multi-level re-sampling threshold on %s (paper rule: fine interval x Kmax)", benchName),
		"Threshold", "Points", "Resampled", "Detail", "Functional", "Modeled Time")
	for _, r := range thr {
		t.AddRow(fmt.Sprintf("%d", r.Threshold),
			fmt.Sprintf("%d", r.Points),
			fmt.Sprintf("%d", r.Resampled),
			stats.FormatPct(r.DetailPct),
			stats.FormatPct(r.FunctionalPct),
			fmt.Sprintf("%.2fs", r.ModeledTime))
	}
	fmt.Print(t.String())

	dims, err := experiments.ProjectionDimSweep(o, benchName, []int{2, 4, 8, 15, 32})
	if err != nil {
		return err
	}
	t = report.NewTable(
		fmt.Sprintf("\nAblation: BBV projection dimension on %s (SimPoint default 15)", benchName),
		"Dims", "Points", "CPI Deviation")
	for _, r := range dims {
		t.AddRow(fmt.Sprintf("%d", r.Dims),
			fmt.Sprintf("%d", r.Points),
			stats.FormatPct(r.CPIDev))
	}
	fmt.Print(t.String())

	cold, err := experiments.ColdStartAblation(o, benchName)
	if err != nil {
		return err
	}
	t = report.NewTable(
		fmt.Sprintf("\nAblation: cold-start vs warmed point execution on %s (see DESIGN.md)", benchName),
		"Method", "Cold CPI Dev", "Warmed CPI Dev")
	for _, r := range cold {
		t.AddRow(r.Method, stats.FormatPct(r.ColdDev), stats.FormatPct(r.WarmDev))
	}
	fmt.Print(t.String())

	early, err := experiments.EarlySPComparison(o, []string{"gzip", "swim", "crafty", "equake"})
	if err != nil {
		return err
	}
	t = report.NewTable(
		"\nAblation: EarlySP (Perelman et al.) vs standard SimPoint vs COASTS (functional fraction)",
		"Benchmark", "Standard", "EarlySP", "COASTS", "EarlySP Speedup", "COASTS Speedup")
	for _, r := range early {
		t.AddRow(r.Benchmark,
			stats.FormatPct(r.StandardFunctional),
			stats.FormatPct(r.EarlySPFunctional),
			stats.FormatPct(r.CoastsFunctional),
			fmt.Sprintf("%.2fx", r.EarlySPSpeedup),
			fmt.Sprintf("%.2fx", r.CoastsSpeedup))
	}
	fmt.Print(t.String())
	if err := printVLI(o); err != nil {
		return err
	}

	sys, err := experiments.StatisticalSamplingComparison(o, []string{benchName})
	if err != nil {
		return err
	}
	t = report.NewTable(
		fmt.Sprintf("\nAblation: SMARTS-style systematic sampling vs COASTS and SimPoint on %s", benchName),
		"Units", "CPI Deviation", "Functional", "Modeled Time", "COASTS Time", "SimPoint Time")
	for _, r := range sys {
		t.AddRow(fmt.Sprintf("%d", r.Units),
			stats.FormatPct(r.CPIDev),
			stats.FormatPct(r.FunctionalPct),
			fmt.Sprintf("%.2fs", r.ModeledTime),
			fmt.Sprintf("%.2fs", r.CoastsTime),
			fmt.Sprintf("%.2fs", r.SimPointTime))
	}
	fmt.Print(t.String())
	return nil
}

// printVLI renders the VLI-vs-fixed comparison appended to ablations.
func printVLI(o experiments.Options) error {
	rows, err := experiments.VLIComparison(o, []string{"gzip", "swim", "crafty", "equake"})
	if err != nil {
		return err
	}
	t := report.NewTable(
		"\nAblation: variable-length intervals vs fixed SimPoint (paper: VLI gains nothing)",
		"Benchmark", "VLI Points", "Fixed Points", "Mean VLI Interval", "Time Ratio")
	for _, r := range rows {
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%d", r.VLIPoints),
			fmt.Sprintf("%d", r.FixedPoints),
			fmt.Sprintf("%.0f", r.MeanVLILength),
			fmt.Sprintf("%.2fx", r.TimeRatio))
	}
	fmt.Print(t.String())
	return nil
}
