// The inspect subcommand renders a run journal recorded with -journal:
// the manifest, a stage wall-time breakdown aggregated from spans, the
// whole-program estimates with their per-point deviation tables, and
// any ground-truth deviation records the run produced.
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"mlpa/internal/obs"
	"mlpa/internal/report"
	"mlpa/internal/stats"
)

func runInspect(f *flags) error {
	if len(f.args) != 1 {
		return fmt.Errorf("usage: mlpa inspect <run.jsonl>")
	}
	jf, err := os.Open(f.args[0])
	if err != nil {
		return err
	}
	defer jf.Close()
	recs, err := obs.ReadJournal(jf)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("inspect: %s holds no journal records", f.args[0])
	}

	var manifest obs.Record
	var spans, points, estimates, selections, deviations []obs.Record
	var metrics obs.Record
	for _, rec := range recs {
		switch rec["ev"] {
		case "manifest":
			manifest = rec
		case "span":
			spans = append(spans, rec)
		case "point":
			points = append(points, rec)
		case "estimate":
			estimates = append(estimates, rec)
		case "selection":
			selections = append(selections, rec)
		case "deviation":
			deviations = append(deviations, rec)
		case "metrics":
			metrics = rec // the last one wins; setupObs writes it at exit
		}
	}

	printManifest(f.args[0], manifest, len(recs))
	printStageBreakdown(spans)
	printSelections(selections)
	printEstimates(estimates, points)
	printDeviationRecords(deviations)
	printJournalMetrics(metrics)
	return nil
}

// jnum reads a numeric journal field; encoding/json decodes every JSON
// number into float64, so this is the one conversion point.
func jnum(rec obs.Record, key string) float64 {
	v, _ := rec[key].(float64)
	return v
}

func jstr(rec obs.Record, key string) string {
	v, _ := rec[key].(string)
	return v
}

func printManifest(path string, m obs.Record, total int) {
	fmt.Printf("journal %s: %d records\n", path, total)
	if m == nil {
		fmt.Println("  (no manifest record — journal predates the manifest schema?)")
		return
	}
	fmt.Printf("  tool %s, command %q, schema %d\n", jstr(m, "tool"), jstr(m, "command"), int(jnum(m, "schema")))
	if b := jstr(m, "benchmark"); b != "" {
		fmt.Printf("  benchmark %s\n", b)
	}
	if s := jstr(m, "size"); s != "" {
		fmt.Printf("  size %s, seed %d\n", s, int64(jnum(m, "seed")))
	}
	if h := jstr(m, "config_hash"); h != "" {
		fmt.Printf("  config hash %s\n", h)
	}
}

// printStageBreakdown aggregates span records by span name: the stage
// wall-time profile of the run.
func printStageBreakdown(spans []obs.Record) {
	if len(spans) == 0 {
		return
	}
	type agg struct {
		name  string
		count int
		total time.Duration
		max   time.Duration
	}
	byName := map[string]*agg{}
	for _, s := range spans {
		name := jstr(s, "name")
		a := byName[name]
		if a == nil {
			a = &agg{name: name}
			byName[name] = a
		}
		d := time.Duration(jnum(s, "dur_ns"))
		a.count++
		a.total += d
		if d > a.max {
			a.max = d
		}
	}
	aggs := make([]*agg, 0, len(byName))
	for _, a := range byName {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].total > aggs[j].total })
	t := report.NewTable("\nStage wall-time breakdown (from spans)",
		"Stage", "Calls", "Total", "Mean", "Max")
	for _, a := range aggs {
		t.AddRow(a.name,
			fmt.Sprintf("%d", a.count),
			fmt.Sprintf("%v", a.total.Round(time.Microsecond)),
			fmt.Sprintf("%v", (a.total/time.Duration(a.count)).Round(time.Microsecond)),
			fmt.Sprintf("%v", a.max.Round(time.Microsecond)))
	}
	fmt.Print(t.String())
}

func printSelections(sel []obs.Record) {
	if len(sel) == 0 {
		return
	}
	t := report.NewTable("\nPoint selections", "Benchmark", "Method", "K", "Points", "Detail")
	for _, s := range sel {
		k := "-"
		if _, ok := s["k"]; ok {
			k = fmt.Sprintf("%d", int(jnum(s, "k")))
		}
		t.AddRow(jstr(s, "benchmark"), jstr(s, "method"), k,
			fmt.Sprintf("%d", int(jnum(s, "points"))),
			stats.FormatPct(jnum(s, "detailed")))
	}
	fmt.Print(t.String())
}

// printEstimates renders each whole-program estimate followed by its
// per-point deviation table: every point's metrics next to how far its
// CPI sits from the weighted whole-program estimate, which is exactly
// the variance the weighted sum hides.
func printEstimates(estimates, points []obs.Record) {
	type key struct{ bench, method, cfg string }
	grouped := map[key][]obs.Record{}
	for _, p := range points {
		k := key{jstr(p, "benchmark"), jstr(p, "method"), jstr(p, "config")}
		grouped[k] = append(grouped[k], p)
	}
	for _, est := range estimates {
		k := key{jstr(est, "benchmark"), jstr(est, "method"), jstr(est, "config")}
		cpi := jnum(est, "cpi")
		fmt.Printf("\nestimate %s/%s config %s: CPI %.4f, L1 %s, L2 %s, detail %s, wall %v detailed + %v functional\n",
			k.bench, k.method, k.cfg, cpi,
			stats.FormatPct(jnum(est, "l1_hit")), stats.FormatPct(jnum(est, "l2_hit")),
			stats.FormatPct(jnum(est, "detailed_insts")/jnum(est, "total_insts")),
			time.Duration(jnum(est, "wall_detailed_ns")).Round(time.Microsecond),
			time.Duration(jnum(est, "wall_functional_ns")).Round(time.Microsecond))
		pts := grouped[k]
		delete(grouped, k)
		if len(pts) == 0 {
			continue
		}
		t := report.NewTable(fmt.Sprintf("per-point records, %s/%s config %s", k.bench, k.method, k.cfg),
			"Idx", "Range", "Weight", "Insts", "CPI", "CPI vs est", "L1", "L2", "Detailed Wall")
		for _, p := range pts {
			pcpi := jnum(p, "cpi")
			dev := 0.0
			if cpi != 0 {
				dev = (pcpi - cpi) / cpi
			}
			t.AddRow(
				fmt.Sprintf("%d", int(jnum(p, "index"))),
				fmt.Sprintf("[%d,%d)", uint64(jnum(p, "start")), uint64(jnum(p, "end"))),
				fmt.Sprintf("%.4f", jnum(p, "weight")),
				fmt.Sprintf("%d", uint64(jnum(p, "insts"))),
				fmt.Sprintf("%.4f", pcpi),
				fmt.Sprintf("%+.2f%%", 100*dev),
				stats.FormatPct(jnum(p, "l1_hit")),
				stats.FormatPct(jnum(p, "l2_hit")),
				fmt.Sprintf("%v", time.Duration(jnum(p, "wall_detailed_ns")).Round(time.Microsecond)))
		}
		fmt.Print(t.String())
	}
	// Point groups with no matching estimate (aborted runs) still print,
	// in sorted key order so the report is reproducible.
	orphans := make([]key, 0, len(grouped))
	for k := range grouped {
		orphans = append(orphans, k)
	}
	sort.Slice(orphans, func(i, j int) bool {
		a, b := orphans[i], orphans[j]
		if a.bench != b.bench {
			return a.bench < b.bench
		}
		if a.method != b.method {
			return a.method < b.method
		}
		return a.cfg < b.cfg
	})
	for _, k := range orphans {
		fmt.Printf("\n%d point records for %s/%s config %s with no estimate record (run aborted?)\n",
			len(grouped[k]), k.bench, k.method, k.cfg)
	}
}

func printDeviationRecords(devs []obs.Record) {
	if len(devs) == 0 {
		return
	}
	t := report.NewTable("\nGround-truth deviations", "Benchmark", "Method", "Config",
		"True CPI", "Est CPI", "CPI Dev", "L1 Dev", "L2 Dev")
	for _, d := range devs {
		t.AddRow(jstr(d, "benchmark"), jstr(d, "method"), jstr(d, "config"),
			fmt.Sprintf("%.4f", jnum(d, "true_cpi")),
			fmt.Sprintf("%.4f", jnum(d, "est_cpi")),
			stats.FormatPct(jnum(d, "cpi_dev")),
			stats.FormatPct(jnum(d, "l1_dev")),
			stats.FormatPct(jnum(d, "l2_dev")))
	}
	fmt.Print(t.String())
}

func printJournalMetrics(m obs.Record) {
	if m == nil {
		return
	}
	counters, _ := m["counters"].(map[string]any)
	if len(counters) == 0 {
		return
	}
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	t := report.NewTable("\nRun counters", "Counter", "Value")
	for _, name := range names {
		t.AddRow(name, fmt.Sprintf("%.0f", counters[name].(float64)))
	}
	fmt.Print(t.String())
}
