// Perf-trajectory gating: `mlpa bench -compare old.json new.json`
// walks two BENCH_*.json reports and fails when a tracked metric has
// shifted significantly, turning the checked-in baselines into an
// actual regression guard. Significance comes from
// internal/changepoint's median/MAD shift test: metric families that
// span the suite (selection walls, ground-truth walls per
// configuration, per-method deviations and wall times) are compared as
// paired series, so the verdict reflects the whole trajectory rather
// than one noisy cell, and the scalar plan walls degrade to a
// relative-threshold gate. Both reports must be at the current schema
// and carry provenance; there is no bridge to older reports.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mlpa/internal/changepoint"
	"mlpa/internal/report"
)

// Gate thresholds. Deterministic accuracy metrics gate at 10%; wall
// times are machine-noise-prone, so they need 25% and (for series) a
// robust z-score before they fail the gate.
const (
	minRelAccuracy = 0.10
	minRelWall     = 0.25
)

// metricKind selects how one finding's values are formatted. Both
// kinds are lower-is-better.
type metricKind int

const (
	kindWall metricKind = iota // lower is better, nanoseconds
	kindDev                    // lower is better, relative deviation
)

// compareFinding is one compared metric family.
type compareFinding struct {
	Metric  string
	Kind    metricKind
	N       int // paired samples behind the comparison
	Shift   changepoint.Shift
	Verdict string // "ok", "regression" or "improvement"
}

// regressed reports whether the shift is significant and upward.
func (c *compareFinding) regressed() bool { return c.Verdict == "regression" }

// finish derives the verdict from the shift: every tracked kind (wall
// and deviation) regresses upward.
func (c *compareFinding) finish() {
	switch {
	case !c.Shift.Significant:
		c.Verdict = "ok"
	case c.Shift.Rel > 0:
		c.Verdict = "regression"
	default:
		c.Verdict = "improvement"
	}
}

func readBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &benchReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("bench compare: %s: %w", path, err)
	}
	switch {
	case rep.Schema != benchSchema:
		return nil, fmt.Errorf("bench compare: %s: schema %d, want %d; regenerate it with `mlpa bench`", path, rep.Schema, benchSchema)
	case rep.Provenance == nil || rep.Micro == nil:
		return nil, fmt.Errorf("bench compare: %s: no provenance or micro section; regenerate it with `mlpa bench`", path)
	}
	return rep, nil
}

// runCompare implements `mlpa bench -compare old.json new.json`.
func runCompare(f *flags) error {
	if len(f.args) != 2 {
		return fmt.Errorf("usage: mlpa bench -compare old.json new.json")
	}
	oldRep, err := readBenchReport(f.args[0])
	if err != nil {
		return err
	}
	newRep, err := readBenchReport(f.args[1])
	if err != nil {
		return err
	}
	findings, warnings := compareReports(oldRep, newRep)
	for _, w := range warnings {
		fmt.Printf("warning: %s\n", w)
	}

	t := report.NewTable(
		fmt.Sprintf("\nBench comparison: %s (%s) vs %s (%s)", f.args[0], oldRep.Date, f.args[1], newRep.Date),
		"Metric", "Old", "New", "Change", "Z", "N", "Verdict")
	var regressions []string
	for i := range findings {
		c := &findings[i]
		t.AddRow(c.Metric,
			formatMetricValue(c.Kind, c.Shift.OldCenter),
			formatMetricValue(c.Kind, c.Shift.NewCenter),
			formatRel(c.Shift.Rel),
			formatZ(c.Shift.Z),
			strconv.Itoa(c.N),
			c.Verdict)
		if c.regressed() {
			regressions = append(regressions, c.Metric)
		}
	}
	fmt.Print(t.String())
	if len(regressions) > 0 {
		return fmt.Errorf("bench compare: %d significant regression(s): %s",
			len(regressions), strings.Join(regressions, ", "))
	}
	fmt.Printf("\nbench compare: no significant regressions across %d metric(s)\n", len(findings))
	return nil
}

// compareReports walks every tracked metric family of the two reports
// and returns the findings (stable order: plan walls by worker count,
// the selection walls, the ground-truth walls by configuration, then
// per-method series) plus comparability warnings.
func compareReports(oldRep, newRep *benchReport) ([]compareFinding, []string) {
	var out []compareFinding
	for _, workers := range microPlanWorkers {
		key := strconv.Itoa(workers)
		c := compareFinding{Metric: fmt.Sprintf("micro.plan_wall[workers=%d]", workers), Kind: kindWall, N: 1,
			Shift: changepoint.ShiftTest(
				[]float64{float64(oldRep.Micro.PlanWalls[key])},
				[]float64{float64(newRep.Micro.PlanWalls[key])},
				changepoint.ShiftOptions{MinRel: minRelWall})}
		c.finish()
		out = append(out, c)
	}
	out = appendBenchSeries(out, "wall_selection", oldRep, newRep, func(e benchEntry) (int64, bool) {
		return e.WallSelection, true
	})
	for _, cfg := range oldRep.Configs {
		out = appendBenchSeries(out, "wall_truth["+cfg+"]", oldRep, newRep, func(e benchEntry) (int64, bool) {
			w, ok := e.WallTruth[cfg]
			return w, ok
		})
	}
	out = append(out, compareMethodSeries(oldRep, newRep)...)
	return out, comparabilityWarnings(oldRep, newRep)
}

// appendBenchSeries tests one per-benchmark wall as a suite-wide series
// over the benchmarks both reports have it for.
func appendBenchSeries(out []compareFinding, metric string, oldRep, newRep *benchReport, wall func(benchEntry) (int64, bool)) []compareFinding {
	newWalls := make(map[string]int64, len(newRep.Benchmarks))
	for _, e := range newRep.Benchmarks {
		if w, ok := wall(e); ok {
			newWalls[e.Benchmark] = w
		}
	}
	var oldS, newS []float64
	for _, e := range oldRep.Benchmarks {
		ow, ok := wall(e)
		nw, found := newWalls[e.Benchmark]
		if ok && found {
			oldS = append(oldS, float64(ow))
			newS = append(newS, float64(nw))
		}
	}
	return appendSeries(out, metric, kindWall, minRelWall, oldS, newS)
}

// appendSeries appends the shift test of one paired series, if it has
// any samples.
func appendSeries(out []compareFinding, metric string, kind metricKind, minRel float64, oldS, newS []float64) []compareFinding {
	if len(oldS) == 0 {
		return out
	}
	c := compareFinding{Metric: metric, Kind: kind, N: len(oldS),
		Shift: changepoint.ShiftTest(oldS, newS, changepoint.ShiftOptions{MinRel: minRel})}
	c.finish()
	return append(out, c)
}

// compareMethodSeries pairs the two reports' per-benchmark method
// results by (benchmark, method, config) and tests each
// (method, config) family's cpi_dev and wall_estimate trajectories
// across the common benchmarks.
func compareMethodSeries(oldRep, newRep *benchReport) []compareFinding {
	type cell struct{ cpiDev, wall float64 }
	index := func(rep *benchReport) (map[string]map[string]cell, []string) {
		byFamily := make(map[string]map[string]cell)
		var families []string
		for _, e := range rep.Benchmarks {
			for _, m := range e.Methods {
				fam := m.Method + "/" + m.Config
				if byFamily[fam] == nil {
					byFamily[fam] = make(map[string]cell)
					families = append(families, fam)
				}
				byFamily[fam][e.Benchmark] = cell{cpiDev: m.CPIDev, wall: float64(m.WallEstimate)}
			}
		}
		return byFamily, families
	}
	oldIdx, families := index(oldRep)
	newIdx, _ := index(newRep)

	var out []compareFinding
	for _, fam := range families {
		newCells, ok := newIdx[fam]
		if !ok {
			continue
		}
		oldCells := oldIdx[fam]
		benchNames := make([]string, 0, len(oldCells))
		for name := range oldCells {
			if _, ok := newCells[name]; ok {
				benchNames = append(benchNames, name)
			}
		}
		sort.Strings(benchNames)
		var oldDev, newDev, oldWall, newWall []float64
		for _, name := range benchNames {
			oldDev = append(oldDev, oldCells[name].cpiDev)
			newDev = append(newDev, newCells[name].cpiDev)
			oldWall = append(oldWall, oldCells[name].wall)
			newWall = append(newWall, newCells[name].wall)
		}
		out = appendSeries(out, "cpi_dev["+fam+"]", kindDev, minRelAccuracy, oldDev, newDev)
		out = appendSeries(out, "wall_estimate["+fam+"]", kindWall, minRelWall, oldWall, newWall)
	}
	return out
}

// comparabilityWarnings reports everything that makes the two reports
// hard to interpret side by side without being a gateable regression:
// size/seed knobs and every provenance field.
func comparabilityWarnings(oldRep, newRep *benchReport) []string {
	var w []string
	if oldRep.Size != newRep.Size {
		w = append(w, fmt.Sprintf("suite size mismatch: old %q vs new %q — walls and deviations are not comparable", oldRep.Size, newRep.Size))
	}
	if oldRep.Seed != newRep.Seed {
		w = append(w, fmt.Sprintf("seed mismatch: old %d vs new %d — selections differ by construction", oldRep.Seed, newRep.Seed))
	}
	op, np := oldRep.Provenance, newRep.Provenance
	field := func(name, ov, nv string) {
		if ov != nv {
			w = append(w, fmt.Sprintf("provenance mismatch: %s old %q vs new %q", name, ov, nv))
		}
	}
	field("go_version", op.GoVersion, np.GoVersion)
	field("goos", op.GOOS, np.GOOS)
	field("goarch", op.GOARCH, np.GOARCH)
	field("gomaxprocs", strconv.Itoa(op.GOMAXPROCS), strconv.Itoa(np.GOMAXPROCS))
	field("num_cpu", strconv.Itoa(op.NumCPU), strconv.Itoa(np.NumCPU))
	return w
}

func formatMetricValue(kind metricKind, v float64) string {
	if kind == kindWall {
		return time.Duration(v).Round(10 * time.Microsecond).String()
	}
	return fmt.Sprintf("%.3f%%", v*100)
}

func formatRel(rel float64) string {
	if math.IsInf(rel, 0) {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", rel*100)
}

func formatZ(z float64) string {
	if math.IsNaN(z) {
		return "-"
	}
	return fmt.Sprintf("%.1f", z)
}
