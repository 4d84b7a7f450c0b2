package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mlpa/internal/obs"
)

// The CLI tests exercise each subcommand end-to-end at tiny scale with
// a benchmark subset, writing to the real stdout (discarded by `go
// test` unless -v).

// captureOutput runs fn with *stream (os.Stdout or os.Stderr)
// redirected to a temporary file and returns what fn wrote there.
func captureOutput(t *testing.T, stream **os.File, fn func() error) (string, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := *stream
	*stream = out
	ferr := fn()
	*stream = saved
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(text), ferr
}

func TestRunUsage(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no-args run succeeded")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown command succeeded")
	}
	if err := run([]string{"fig3", "-size", "huge"}); err == nil {
		t.Error("bad size accepted")
	}
	if err := run([]string{"fig3", "-size", "tiny", "-rates", "warp"}); err == nil {
		t.Error("bad rates accepted")
	}
	if err := run([]string{"table2", "-size", "tiny", "-benchmarks", "gzip", "-config", "Z"}); err == nil {
		t.Error("bad config accepted")
	}
	if err := run([]string{"fig1", "-size", "tiny", "-bench", "bogus"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunFig1(t *testing.T) {
	if err := run([]string{"fig1", "-size", "tiny", "-bench", "lucas"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig3AndFig4(t *testing.T) {
	for _, cmd := range []string{"fig3", "fig4", "table3"} {
		if err := run([]string{cmd, "-size", "tiny", "-benchmarks", "gzip,swim"}); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
}

func TestRunTable2(t *testing.T) {
	if err := run([]string{"table2", "-size", "tiny", "-benchmarks", "gzip", "-config", "A"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPoints(t *testing.T) {
	if err := run([]string{"points", "-size", "tiny", "-bench", "swim"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMotivation(t *testing.T) {
	if err := run([]string{"motivation", "-size", "tiny", "-benchmarks", "gzip,art"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMeasuredRates(t *testing.T) {
	if err := run([]string{"fig3", "-size", "tiny", "-benchmarks", "gzip", "-rates", "measured"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunAblation runs every ablation on one benchmark: each table is
// printed, and the caller's journal holds one estimate record per
// executed plan — five projection dimensions, three methods cold and
// warmed, and one systematic-sampling plan.
func TestRunAblation(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	text, err := captureOutput(t, &os.Stdout, func() error {
		return run([]string{"ablation", "-size", "tiny", "-bench", "gzip", "-journal", journal})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{
		"Ablation: interval granularity on gzip",
		"Ablation: COASTS Kmax on gzip",
		"Ablation: multi-level re-sampling threshold on gzip",
		"Ablation: BBV projection dimension on gzip",
		"Ablation: cold-start vs warmed point execution on gzip",
		"Ablation: EarlySP",
		"Ablation: variable-length intervals vs fixed SimPoint",
		"Ablation: SMARTS-style systematic sampling vs COASTS and SimPoint on gzip",
	} {
		if !strings.Contains(text, title) {
			t.Errorf("output lacks the table %q", title)
		}
	}

	jf, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJournal(jf)
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}
	estimates := 0
	for _, rec := range recs {
		if rec["ev"] == "estimate" {
			estimates++
		}
	}
	if estimates != 5+3*2+1 {
		t.Errorf("journal holds %d estimate records, want %d", estimates, 5+3*2+1)
	}
}

// TestRunCheckpoint drives the checkpoint flow end to end: save a
// portable set, verify it and estimate from it. The retired
// `checkpoint` subcommand must fail as an unknown command.
func TestRunCheckpoint(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"ckpt", "save", "-dir", dir, "-size", "tiny", "-bench", "crafty", "-method", "coasts"},
		{"ckpt", "info", "-dir", dir},
		{"ckpt", "exec", "-dir", dir, "-config", "A"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	if err := run([]string{"ckpt", "save", "-dir", t.TempDir(), "-size", "tiny", "-bench", "crafty", "-method", "bogus"}); err == nil {
		t.Error("unknown method accepted")
	}
	err := run([]string{"checkpoint", "-size", "tiny", "-bench", "crafty"})
	if err == nil || !strings.Contains(err.Error(), `unknown command "checkpoint"`) {
		t.Errorf("checkpoint subcommand: got %v, want an unknown-command error", err)
	}
}

// TestRunJournalAndInspect records a full table2 run journal, checks
// its structure, and renders it back through inspect.
func TestRunJournalAndInspect(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	metrics := filepath.Join(dir, "metrics.json")
	err := run([]string{"table2", "-size", "tiny", "-benchmarks", "gzip", "-config", "A",
		"-journal", journal, "-metrics", metrics})
	if err != nil {
		t.Fatal(err)
	}

	jf, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJournal(jf)
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty journal")
	}
	if recs[0]["ev"] != "manifest" || recs[0]["tool"] != "mlpa" || recs[0]["command"] != "table2" {
		t.Errorf("first record is not the manifest: %v", recs[0])
	}
	counts, selections := map[any]int{}, map[any]int{}
	for _, rec := range recs {
		counts[rec["ev"]]++
		if rec["ev"] == "selection" {
			selections[rec["method"]]++
		}
	}
	for _, ev := range []string{"span", "point", "estimate", "selection", "deviation", "metrics"} {
		if counts[ev] == 0 {
			t.Errorf("journal has no %q records (got %v)", ev, counts)
		}
	}
	// COASTS is selected once and reused as the multi-level first level.
	if selections["coasts"] != 1 || selections["multilevel"] != 1 {
		t.Errorf("selection records by method = %v, want one coasts and one multilevel", selections)
	}

	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["pipeline.points_executed"] == 0 || snap.Counters["emu.run_insts"] == 0 {
		t.Errorf("metrics snapshot missing pipeline/emu counters: %v", snap.Counters)
	}

	text, err := captureOutput(t, &os.Stdout, func() error { return run([]string{"inspect", journal}) })
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !strings.Contains(text, "\n  benchmark gzip\n") {
		t.Errorf("inspect of the table2 journal names no benchmark:\n%s", text)
	}

	// A single-program command's manifest names its -bench program.
	simJournal := filepath.Join(dir, "sim.jsonl")
	if _, err := captureOutput(t, &os.Stdout, func() error {
		return run([]string{"sim", "-bench", "gzip", "-size", "tiny", "-mode", "functional",
			"-max", "1000", "-journal", simJournal})
	}); err != nil {
		t.Fatal(err)
	}
	jf, err = os.Open(simJournal)
	if err != nil {
		t.Fatal(err)
	}
	recs, err = obs.ReadJournal(jf)
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0]["ev"] != "manifest" || recs[0]["benchmark"] != "gzip" {
		t.Errorf("sim journal's first record does not name gzip: %v", recs[:min(1, len(recs))])
	}
	text, err = captureOutput(t, &os.Stdout, func() error { return run([]string{"inspect", simJournal}) })
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !strings.Contains(text, "\n  benchmark gzip\n") {
		t.Errorf("inspect of the sim journal names no benchmark:\n%s", text)
	}

	if err := run([]string{"inspect"}); err == nil {
		t.Error("inspect without a journal path succeeded")
	}
	if err := run([]string{"inspect", filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Error("inspect of a missing file succeeded")
	}
}

// TestManifestBenchmark: every command's journal manifest names the
// program it runs, from the positional file, -bench or -benchmarks.
func TestManifestBenchmark(t *testing.T) {
	for _, tc := range []struct {
		cmd, sub string
		args     []string
		want     string
	}{
		{"analyze", "", []string{"-bench", "art", "dir/foo.s"}, "foo"},
		{"sim", "", []string{"prog.asm"}, "prog"},
		{"bbv", "", []string{"-bench", "art"}, "art"},
		{"sim", "", []string{"-bench", "gzip"}, "gzip"},
		{"fig1", "", []string{"-bench", "mcf"}, "mcf"},
		{"points", "", []string{"-bench", "swim"}, "swim"},
		{"ablation", "", []string{"-bench", "gcc", "-benchmarks", "gzip"}, "gcc"},
		{"ckpt", "save", []string{"-bench", "vpr", "-benchmarks", "gzip"}, "vpr"},
		{"ckpt", "info", []string{"-bench", "vpr", "-benchmarks", "gzip"}, "gzip"},
		{"table2", "", []string{"-bench", "art", "-benchmarks", "gzip,swim"}, "gzip,swim"},
		{"table2", "", nil, ""},
	} {
		f, err := parseFlags(tc.cmd, tc.args)
		if err != nil {
			t.Fatal(err)
		}
		if got := manifestBenchmark(f, tc.cmd, tc.sub); got != tc.want {
			t.Errorf("manifestBenchmark(%s %s %q) = %q, want %q", tc.cmd, tc.sub, tc.args, got, tc.want)
		}
	}
}

// TestConfigHashCoversResultFlags: argument lists that differ only in
// a flag that picks the program or changes a sim/bbv result carry
// different journal config hashes.
func TestConfigHashCoversResultFlags(t *testing.T) {
	hash := func(args ...string) string {
		t.Helper()
		f, err := parseFlags("ablation", append([]string{"-size", "tiny"}, args...))
		if err != nil {
			t.Fatal(err)
		}
		return configHash(f)
	}
	for _, pair := range [][2][]string{
		{{"-bench", "gzip"}, {"-bench", "swim"}},
		{{"-mode", "functional"}, {"-mode", "warm"}},
		{{"-max", "0"}, {"-max", "1000"}},
		{{"-granularity", "fine"}, {"-granularity", "coarse"}},
		{{"-pca", "0"}, {"-pca", "2"}},
	} {
		if hash(pair[0]...) == hash(pair[1]...) {
			t.Errorf("%v and %v share a config hash", pair[0], pair[1])
		}
	}
}

// TestRunBench checks the machine-readable harness output, and that
// its cells come from the Table II loop: the journal holds one
// deviation record per report cell, with the cell's numbers.
func TestRunBench(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	if err := run([]string{"bench", "-size", "tiny", "-benchmarks", "gzip", "-config", "A", "-dir", dir, "-journal", journal}); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("bench report files: %v (err %v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != benchSchema || len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Benchmark != "gzip" {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.Provenance == nil || rep.Provenance.GoVersion == "" || rep.Provenance.GOMAXPROCS <= 0 {
		t.Fatalf("provenance incomplete: %+v", rep.Provenance)
	}
	if rep.Micro == nil || rep.Micro.PlanBenchmark != "gzip" {
		t.Fatalf("micro section incomplete: %+v", rep.Micro)
	}
	for _, workers := range microPlanWorkers {
		key := strconv.Itoa(workers)
		if rep.Micro.PlanWalls[key] <= 0 {
			t.Errorf("plan wall curve missing workers=%d: %+v", workers, rep.Micro.PlanWalls)
		}
		if c := rep.Micro.PlanChunks[key]; c < 1 || c > workers {
			t.Errorf("plan chunks at workers=%d = %d, want 1..%d: %+v", workers, c, workers, rep.Micro.PlanChunks)
		}
	}
	e := rep.Benchmarks[0]
	if e.WallSelection <= 0 || e.WallTruth["A"] <= 0 || len(e.Methods) != 3 {
		t.Errorf("bench entry incomplete: %+v", e)
	}
	for _, m := range e.Methods {
		if m.EstCPI <= 0 || m.TrueCPI <= 0 || m.WallEstimate <= 0 {
			t.Errorf("bench method %s/%s has empty measurements: %+v", m.Method, m.Config, m)
		}
	}

	jf, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJournal(jf)
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}
	devs := map[string][]map[string]any{}
	for _, rec := range recs {
		if rec["ev"] == "deviation" {
			key := fmt.Sprintf("%v/%v/%v", rec["benchmark"], rec["method"], rec["config"])
			devs[key] = append(devs[key], rec)
		}
	}
	if len(devs) != len(e.Methods) {
		t.Errorf("journal has deviation records for %d cells, report has %d", len(devs), len(e.Methods))
	}
	for _, m := range e.Methods {
		key := fmt.Sprintf("%s/%s/%s", e.Benchmark, m.Method, m.Config)
		got := devs[key]
		if len(got) != 1 {
			t.Errorf("%s: %d deviation records, want 1", key, len(got))
			continue
		}
		if got[0]["cpi_dev"] != m.CPIDev || got[0]["true_cpi"] != m.TrueCPI || got[0]["est_cpi"] != m.EstCPI {
			t.Errorf("%s: deviation record %v disagrees with the report cell %+v", key, got[0], m)
		}
	}
}

// TestRunProfilingFlags drives the -cpuprofile/-memprofile path.
func TestRunProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := run([]string{"points", "-size", "tiny", "-bench", "gzip", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", f, err)
		}
	}
}

// TestRunAnalyze drives the static-analysis subcommand against a suite
// benchmark, an assembled source file, and a malformed program.
func TestRunAnalyze(t *testing.T) {
	if err := run([]string{"analyze", "-size", "tiny", "-bench", "gzip", "-dynamic"}); err != nil {
		t.Fatalf("analyze gzip: %v", err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.s")
	src := `
    addi r1, r0, 5
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
`
	if err := os.WriteFile(good, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze", good}); err != nil {
		t.Fatalf("analyze %s: %v", good, err)
	}
	// A program whose verification fails must make the command fail.
	bad := filepath.Join(dir, "bad.s")
	badSrc := `
    addi r1, r0, 5
    jmp  skip
    addi r9, r9, 1
skip:
    halt
`
	if err := os.WriteFile(bad, []byte(badSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze", bad}); err == nil {
		t.Error("analyze accepted a program with an unreachable block")
	}
	if err := run([]string{"analyze", "-bench", "bogus"}); err == nil {
		t.Error("analyze accepted an unknown benchmark")
	}
	if err := run([]string{"analyze", filepath.Join(dir, "missing.s")}); err == nil {
		t.Error("analyze accepted a missing file")
	}
}
