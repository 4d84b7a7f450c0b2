package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureReport builds a current-schema report with plausible numbers
// across the metric families -compare tracks.
func fixtureReport() *benchReport {
	rep := &benchReport{
		Schema:  benchSchema,
		Date:    "2026-08-01",
		Size:    "small",
		Seed:    42,
		Configs: []string{"A", "B"},
		Micro: &microReport{
			PlanBenchmark: "gzip",
			PlanWalls: map[string]int64{
				"1": 46_000_000, "2": 30_000_000, "4": 25_000_000, "8": 26_000_000,
			},
			PlanChunks: map[string]int{"1": 1, "2": 2, "4": 3, "8": 3},
		},
		Provenance: captureProvenance(),
	}
	for _, name := range []string{"art", "crafty", "gcc", "gzip", "lucas", "swim"} {
		entry := benchEntry{Benchmark: name, WallSelection: 300_000_000,
			WallTruth: map[string]int64{"A": 2_000_000_000, "B": 2_400_000_000}}
		for _, method := range []string{"coasts", "offline", "online"} {
			entry.Methods = append(entry.Methods, benchMethod{
				Method: method, Config: "A", Points: 12,
				TrueCPI: 1.5, EstCPI: 1.52, CPIDev: 0.013,
				WallEstimate: 400_000_000,
			})
		}
		rep.Benchmarks = append(rep.Benchmarks, entry)
	}
	return rep
}

func writeReport(t *testing.T, dir, name string, rep *benchReport) string {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareIdenticalReports: comparing a report against itself exits
// clean with zero regressions — the acceptance criterion's happy path.
func TestCompareIdenticalReports(t *testing.T) {
	dir := t.TempDir()
	rep := fixtureReport()
	oldPath := writeReport(t, dir, "old.json", rep)
	newPath := writeReport(t, dir, "new.json", rep)
	if err := run([]string{"bench", "-compare", oldPath, newPath}); err != nil {
		t.Fatalf("identical reports flagged: %v", err)
	}
	findings, warnings := compareReports(rep, rep)
	if len(warnings) != 0 {
		t.Errorf("identical reports warned: %v", warnings)
	}
	for _, c := range findings {
		if c.Verdict != "ok" {
			t.Errorf("%s verdict = %s on identical reports", c.Metric, c.Verdict)
		}
	}
}

// TestCompareInjectedPlanWallRegression: a synthetic 40% slowdown of
// the sequential plan wall must fail the gate and name the regressed
// metric — the acceptance criterion's unhappy path.
func TestCompareInjectedPlanWallRegression(t *testing.T) {
	dir := t.TempDir()
	oldRep := fixtureReport()
	newRep := fixtureReport()
	newRep.Micro.PlanWalls["1"] = oldRep.Micro.PlanWalls["1"] * 14 / 10
	oldPath := writeReport(t, dir, "old.json", oldRep)
	newPath := writeReport(t, dir, "new.json", newRep)
	err := run([]string{"bench", "-compare", oldPath, newPath})
	if err == nil {
		t.Fatal("40% plan-wall slowdown passed the gate")
	}
	if !strings.Contains(err.Error(), "micro.plan_wall[workers=1]") {
		t.Errorf("gate failure does not name the regressed metric: %v", err)
	}
}

// TestCompareInjectedSelectionWallRegression: a 40% slowdown of every
// benchmark's selection wall (a k-means regression) must fail the gate
// and name wall_selection.
func TestCompareInjectedSelectionWallRegression(t *testing.T) {
	dir := t.TempDir()
	oldRep := fixtureReport()
	newRep := fixtureReport()
	for i := range newRep.Benchmarks {
		newRep.Benchmarks[i].WallSelection = oldRep.Benchmarks[i].WallSelection * 14 / 10
	}
	oldPath := writeReport(t, dir, "old.json", oldRep)
	newPath := writeReport(t, dir, "new.json", newRep)
	err := run([]string{"bench", "-compare", oldPath, newPath})
	if err == nil {
		t.Fatal("40% selection-wall slowdown passed the gate")
	}
	if !strings.Contains(err.Error(), "wall_selection") {
		t.Errorf("gate failure does not name wall_selection: %v", err)
	}
}

// TestCompareInjectedTruthWallRegression: a 40% slowdown of every
// benchmark's ground-truth wall under one configuration (a detailed-
// model regression) must fail the gate and name that configuration's
// wall_truth series, while the other configuration's stays ok.
func TestCompareInjectedTruthWallRegression(t *testing.T) {
	dir := t.TempDir()
	oldRep := fixtureReport()
	newRep := fixtureReport()
	for i := range newRep.Benchmarks {
		newRep.Benchmarks[i].WallTruth["A"] = oldRep.Benchmarks[i].WallTruth["A"] * 14 / 10
	}
	oldPath := writeReport(t, dir, "old.json", oldRep)
	newPath := writeReport(t, dir, "new.json", newRep)
	err := run([]string{"bench", "-compare", oldPath, newPath})
	if err == nil {
		t.Fatal("40% ground-truth-wall slowdown passed the gate")
	}
	if !strings.Contains(err.Error(), "wall_truth[A]") {
		t.Errorf("gate failure does not name wall_truth[A]: %v", err)
	}
	findings, _ := compareReports(oldRep, newRep)
	verdicts := make(map[string]string)
	for _, c := range findings {
		verdicts[c.Metric] = c.Verdict
	}
	if verdicts["wall_truth[A]"] != "regression" || verdicts["wall_truth[B]"] != "ok" {
		t.Errorf("wall_truth verdicts A=%q B=%q, want regression and ok", verdicts["wall_truth[A]"], verdicts["wall_truth[B]"])
	}
}

// TestCompareVerdictDirections: walls and deviations regress upward,
// shifts downward are improvements, not failures, and shifts under
// the thresholds never gate.
func TestCompareVerdictDirections(t *testing.T) {
	oldRep := fixtureReport()
	newRep := fixtureReport()
	newRep.Micro.PlanWalls["2"] = oldRep.Micro.PlanWalls["2"] * 6 / 10  // faster: improvement
	newRep.Micro.PlanWalls["4"] = oldRep.Micro.PlanWalls["4"] * 14 / 10 // slower: regression
	for i := range newRep.Benchmarks {
		for j := range newRep.Benchmarks[i].Methods {
			m := &newRep.Benchmarks[i].Methods[j]
			switch m.Method {
			case "coasts":
				m.CPIDev *= 2 // accuracy collapse
			case "offline":
				m.CPIDev /= 2 // accuracy gain
			}
		}
	}
	findings, _ := compareReports(oldRep, newRep)
	byMetric := make(map[string]compareFinding, len(findings))
	for _, c := range findings {
		byMetric[c.Metric] = c
	}
	for _, c := range []struct{ metric, want string }{
		{"micro.plan_wall[workers=1]", "ok"},
		{"micro.plan_wall[workers=2]", "improvement"},
		{"micro.plan_wall[workers=4]", "regression"},
		{"cpi_dev[coasts/A]", "regression"},
		{"cpi_dev[offline/A]", "improvement"},
		{"cpi_dev[online/A]", "ok"},
		{"wall_estimate[coasts/A]", "ok"},
	} {
		if got := byMetric[c.metric].Verdict; got != c.want {
			t.Errorf("%s verdict = %q, want %q", c.metric, got, c.want)
		}
	}
	// Small shifts under the thresholds never gate.
	mild := fixtureReport()
	mild.Micro.PlanWalls["1"] = oldRep.Micro.PlanWalls["1"] * 11 / 10 // +10% < the 25% wall gate
	for i := range mild.Benchmarks {
		for j := range mild.Benchmarks[i].Methods {
			mild.Benchmarks[i].Methods[j].CPIDev *= 1.05 // +5% < the 10% accuracy gate
		}
	}
	findings, _ = compareReports(oldRep, mild)
	for _, c := range findings {
		if c.Verdict != "ok" {
			t.Errorf("sub-threshold shift of %s: verdict %q, want ok", c.Metric, c.Verdict)
		}
	}
}

// TestCompareProvenanceMismatchWarnsOnly: different hosts warn but do
// not gate.
func TestCompareProvenanceMismatchWarnsOnly(t *testing.T) {
	dir := t.TempDir()
	oldRep := fixtureReport()
	oldRep.Provenance = &benchProvenance{
		GoVersion: "go1.0", GOOS: "plan9", GOARCH: "mips", GOMAXPROCS: 64, NumCPU: 64,
	}
	oldPath := writeReport(t, dir, "old.json", oldRep)
	newPath := writeReport(t, dir, "new.json", fixtureReport())
	if err := run([]string{"bench", "-compare", oldPath, newPath}); err != nil {
		t.Fatalf("provenance mismatch gated: %v", err)
	}
	_, warnings := compareReports(oldRep, fixtureReport())
	if len(warnings) < 4 {
		t.Errorf("expected per-field provenance warnings, got %v", warnings)
	}
}

// TestCompareBadInputs: malformed invocations and reports fail cleanly.
func TestCompareBadInputs(t *testing.T) {
	dir := t.TempDir()
	good := writeReport(t, dir, "good.json", fixtureReport())
	if err := run([]string{"bench", "-compare", good}); err == nil {
		t.Error("single-argument -compare accepted")
	}
	if err := run([]string{"bench", "-compare", good, filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing report accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"bench", "-compare", good, bad}); err == nil {
		t.Error("malformed report accepted")
	}
	// No bridges: an earlier schema or a report without provenance is
	// refused on either side, with the fix in the message.
	previous := fixtureReport()
	previous.Schema = benchSchema - 1
	unprovenanced := fixtureReport()
	unprovenanced.Provenance = nil
	noMicro := fixtureReport()
	noMicro.Micro = nil
	for _, c := range []struct {
		name string
		rep  *benchReport
	}{{"previous-schema", previous}, {"no-provenance", unprovenanced}, {"no-micro", noMicro}} {
		path := writeReport(t, dir, c.name+".json", c.rep)
		for _, args := range [][]string{{path, good}, {good, path}} {
			err := run(append([]string{"bench", "-compare"}, args...))
			if err == nil || !strings.Contains(err.Error(), "regenerate") {
				t.Errorf("%s report as %v: got %v, want an error naming \"regenerate\"", c.name, args, err)
			}
		}
	}
}
