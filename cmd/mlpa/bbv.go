package main

import (
	"bufio"
	"fmt"
	"os"

	"mlpa/internal/bench"
	"mlpa/internal/coasts"
	"mlpa/internal/linalg"
	"mlpa/internal/phase"
	"mlpa/internal/simpoint"
	"mlpa/internal/staticanalysis"
)

// runBBV implements `mlpa bbv`: it runs the profiling stage on one
// program and prints each interval's projected basic-block-vector
// signature as CSV, optionally reduced to the first -pca N principal
// components.
func runBBV(f *flags) error {
	tr, err := obtainTrace(f)
	if err != nil {
		return err
	}
	return writeCSV(bufio.NewWriter(os.Stdout), tr, f.pca)
}

// obtainTrace profiles the program at -granularity: fixed-length
// intervals of the size's fine length (fine, SimPoint's profile) or
// outer-loop iterations (coarse, COASTS's profile), with the 15-dim
// projection seeded by -seed.
func obtainTrace(f *flags) (*phase.Trace, error) {
	size, err := bench.ParseSize(f.size)
	if err != nil {
		return nil, err
	}
	p, err := loadProgram(f)
	if err != nil {
		return nil, err
	}
	switch f.granularity {
	case "fine":
		// CollectBoundaries preflights the coarse path; the fine
		// profile drives the emulator directly, so verify here first.
		if err := staticanalysis.Preflight(p); err != nil {
			return nil, fmt.Errorf("preflight for %s: %w", p.Name, err)
		}
		return simpoint.Profile(p, simpoint.Config{IntervalLen: bench.FineInterval(size), Seed: f.seed, Obs: f.rt})
	case "coarse":
		cfg := coasts.Config{Seed: f.seed, Obs: f.rt}
		b, err := coasts.CollectBoundaries(p, cfg)
		if err != nil {
			return nil, err
		}
		return coasts.Profile(p, b, cfg)
	}
	return nil, fmt.Errorf("unknown granularity %q", f.granularity)
}

// writeCSV writes the trace as a header comment, a column line and one
// row per interval, then flushes w, which reports the first write
// error.
func writeCSV(w *bufio.Writer, tr *phase.Trace, pcaDims int) error {
	cols := 0
	if len(tr.Intervals) > 0 {
		cols = len(tr.Intervals[0].Vector)
	}
	var projected [][]float64
	if pcaDims > 0 {
		p, err := linalg.FitPCA(tr.Vectors())
		if err != nil {
			return err
		}
		projected = make([][]float64, len(tr.Intervals))
		for i, iv := range tr.Intervals {
			projected[i] = p.Project(iv.Vector, pcaDims)
		}
		cols = len(projected[0])
	}

	fmt.Fprintf(w, "# benchmark=%s kind=%s total=%d\n", tr.Benchmark, tr.Kind, tr.TotalInsts)
	fmt.Fprint(w, "interval,start,end")
	for c := 0; c < cols; c++ {
		if pcaDims > 0 {
			fmt.Fprintf(w, ",pc%d", c+1)
		} else {
			fmt.Fprintf(w, ",d%d", c)
		}
	}
	fmt.Fprintln(w)
	for i, iv := range tr.Intervals {
		fmt.Fprintf(w, "%d,%d,%d", iv.Index, iv.Start, iv.End)
		row := iv.Vector
		if pcaDims > 0 {
			row = projected[i]
		}
		for _, x := range row {
			fmt.Fprintf(w, ",%g", x)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
