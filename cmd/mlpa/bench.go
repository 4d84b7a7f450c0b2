// The bench subcommand is the machine-readable companion to table2: it
// times selection, ground truth and sampled execution per benchmark,
// plus the ExecutePlan worker curve, and writes everything to
// BENCH_<date>.json, so runs are diffable across commits without
// scraping table output.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/experiments"
	"mlpa/internal/parallel"
)

// benchSchema is the BENCH_<date>.json document version. Schema 7
// keeps only what no other harness measures: the per-benchmark
// selection, truth and estimate walls and deviations, the provenance
// block, and the ExecutePlan worker curve of the checkpoint-backed
// SimPoint plan (see micro.go). There are no bridges to earlier
// schemas: `mlpa bench -compare` rejects any report not at this
// schema, and the fix is to regenerate it.
const benchSchema = 7

// gateParallelSlack is the measurement-noise allowance of the
// -gate-parallel check: workers=4 must not be slower than workers=1 by
// more than this fraction. The walls compared are each best-of-three
// (see runMicro), so the slack only absorbs residual host jitter, not
// a real scheduling loss like the 2.3x regression this gate pins down.
const gateParallelSlack = 0.05

// benchReport is the BENCH_<date>.json document.
type benchReport struct {
	Schema     int              `json:"schema"`
	Date       string           `json:"date"`
	Size       string           `json:"size"`
	Seed       int64            `json:"seed"`
	Configs    []string         `json:"configs"`
	Provenance *benchProvenance `json:"provenance,omitempty"`
	WallTotal  int64            `json:"wall_total_ns"`
	Micro      *microReport     `json:"micro"`
	Benchmarks []benchEntry     `json:"benchmarks"`
}

// benchProvenance records where a report's numbers came from, so two
// reports are interpretable before they are compared: wall times from
// different machines or toolchains shift for reasons that are not
// regressions. `mlpa bench -compare` refuses a report without it, and
// warns on any field mismatch instead of gating on it.
type benchProvenance struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GitRevision string `json:"git_revision,omitempty"`
}

// captureProvenance snapshots the running toolchain and host. The git
// revision comes from the binary's embedded VCS stamp when the build
// carried one (`go build`/`go run` from a clean checkout).
func captureProvenance() *benchProvenance {
	p := &benchProvenance{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.GitRevision = s.Value
			}
		}
	}
	return p
}

type benchEntry struct {
	Benchmark     string `json:"benchmark"`
	TotalInsts    uint64 `json:"total_insts"`
	WallSelection int64  `json:"wall_selection_ns"`
	// WallTruth maps config name to the full detailed run's wall time.
	WallTruth map[string]int64 `json:"wall_truth_ns"`
	Methods   []benchMethod    `json:"methods"`
}

type benchMethod struct {
	Method           string  `json:"method"`
	Config           string  `json:"config"`
	Points           int     `json:"points"`
	DetailedFraction float64 `json:"detailed_fraction"`
	TrueCPI          float64 `json:"true_cpi"`
	EstCPI           float64 `json:"est_cpi"`
	CPIDev           float64 `json:"cpi_dev"`
	L1Dev            float64 `json:"l1_dev"`
	L2Dev            float64 `json:"l2_dev"`
	WallEstimate     int64   `json:"wall_estimate_ns"`
}

func runBench(f *flags) error {
	if f.compare {
		return runCompare(f)
	}
	o, err := f.options()
	if err != nil {
		return err
	}
	configs, err := f.cpuConfigs()
	if err != nil {
		return err
	}
	rep := &benchReport{
		Schema:     benchSchema,
		Date:       time.Now().Format("2006-01-02"),
		Size:       f.size,
		Seed:       f.seed,
		Provenance: captureProvenance(),
	}
	if rep.Micro, err = runMicro(f); err != nil {
		return fmt.Errorf("bench micro: %w", err)
	}
	for _, cfg := range configs {
		rep.Configs = append(rep.Configs, cfg.Name)
	}

	// One single-benchmark study per entry, so selection wall time is
	// attributable per benchmark rather than amortized over the suite.
	names := o.Benchmarks
	if len(names) == 0 {
		names = bench.Names()
	}

	// Benchmarks are independent: fan the suite out over the worker
	// budget, with each worker selecting its benchmark and running
	// Table II on it (ground truth and plan execution for every
	// configuration and method), the code `mlpa table2` runs. Entries
	// land in slot order, so the report is byte-identical for every
	// -workers value (wall fields excepted).
	t0 := time.Now()
	entries := make([]benchEntry, len(names))
	err = parallel.ForEachOpt(f.ctx, f.workers, len(names), func(ctx context.Context, i int) error {
		name := names[i]
		bo := o
		bo.Benchmarks = []string{name}
		// The suite level already fans out; keep each plan's points
		// sequential so the machine is not oversubscribed.
		bo.Workers = 1
		bo.Ctx = ctx
		selStart := time.Now()
		st, err := experiments.NewStudy(bo)
		if err != nil {
			return fmt.Errorf("bench %s: %w", name, err)
		}
		entry := benchEntry{
			Benchmark:     name,
			WallSelection: time.Since(selStart).Nanoseconds(),
			WallTruth:     make(map[string]int64),
		}
		res, err := st.Table2(configs)
		if err != nil {
			return fmt.Errorf("bench %s: %w", name, err)
		}
		for _, r := range res.Runs {
			entry.WallTruth[r.Config] = r.TruthWall.Nanoseconds()
			entry.Methods = append(entry.Methods, benchMethod{
				Method:           r.Method,
				Config:           r.Config,
				Points:           r.Est.Points,
				DetailedFraction: r.Est.DetailedFraction(),
				TrueCPI:          r.Truth.CPI(),
				EstCPI:           r.Est.CPI,
				CPIDev:           r.CPIDev,
				L1Dev:            r.L1Dev,
				L2Dev:            r.L2Dev,
				WallEstimate:     r.Est.Wall().Nanoseconds(),
			})
			entry.TotalInsts = r.Est.TotalInsts
		}
		entries[i] = entry
		return nil
	}, parallel.ForEachOptions{Metrics: f.rt.Metrics(), Stage: f.rt.Progress().Stage("bench.benchmarks")})
	if err != nil {
		return err
	}
	rep.Benchmarks = entries
	for _, entry := range entries {
		fmt.Printf("bench %s: selection %v, truth %v (config %s)\n",
			entry.Benchmark, time.Duration(entry.WallSelection).Round(time.Millisecond),
			time.Duration(entry.WallTruth[configs[0].Name]).Round(time.Millisecond), configs[0].Name)
	}
	rep.WallTotal = time.Since(t0).Nanoseconds()

	out := fmt.Sprintf("BENCH_%s.json", rep.Date)
	if f.dir != "" {
		if err := os.MkdirAll(f.dir, 0o755); err != nil {
			return err
		}
		out = filepath.Join(f.dir, out)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks x %d configs)\n", out, len(rep.Benchmarks), len(configs))
	if f.gateParallel {
		msg, err := parallelGate(rep.Micro, rep.Provenance.GOMAXPROCS)
		if err != nil {
			return err
		}
		fmt.Println(msg)
	}
	return nil
}

// parallelGate checks the micro plan wall at workers=4 against
// workers=1. When the scheduler ran workers=4 as one chunk (as it must
// at GOMAXPROCS=1), both walls time the same sequential schedule, so
// the gate reports that it measured nothing instead of passing.
func parallelGate(m *microReport, gomaxprocs int) (string, error) {
	if chunks := m.PlanChunks["4"]; chunks == 1 {
		return fmt.Sprintf("parallel gate not measured: workers=4 ran as %d chunk at GOMAXPROCS=%d, so both walls time the same sequential schedule",
			chunks, gomaxprocs), nil
	}
	w1, w4 := m.PlanWalls["1"], m.PlanWalls["4"]
	if w4 > int64(float64(w1)*(1+gateParallelSlack)) {
		return "", fmt.Errorf("bench: parallel gate failed: plan wall workers=4 %v exceeds workers=1 %v (allowance %.0f%%)",
			time.Duration(w4).Round(time.Millisecond), time.Duration(w1).Round(time.Millisecond), 100*gateParallelSlack)
	}
	return fmt.Sprintf("parallel gate ok: plan wall workers=4 %v <= workers=1 %v",
		time.Duration(w4).Round(time.Millisecond), time.Duration(w1).Round(time.Millisecond)), nil
}
