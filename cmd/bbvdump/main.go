// Command bbvdump runs the profiling stage on a suite benchmark and
// emits per-interval basic-block-vector data: CSV of the projected
// signatures (optionally reduced to principal components), or a binary
// trace file consumable by later pipeline stages.
//
//	bbvdump -bench lucas -granularity fine -pca 2 > lucas.csv
//	bbvdump -bench gcc -granularity coarse -o gcc.trc
//	bbvdump -in gcc.trc -pca 1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"mlpa/internal/bbv"
	"mlpa/internal/bench"
	"mlpa/internal/coasts"
	"mlpa/internal/linalg"
	"mlpa/internal/obs"
	"mlpa/internal/phase"
	"mlpa/internal/staticanalysis"
	"mlpa/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bbvdump:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		benchName   = flag.String("bench", "", "suite benchmark to profile")
		in          = flag.String("in", "", "read a previously saved trace instead of profiling")
		size        = flag.String("size", "small", "suite scale: tiny, small or ref")
		granularity = flag.String("granularity", "fine", "fine (fixed-length) or coarse (loop iterations)")
		dims        = flag.Int("dims", bbv.DefaultDims, "projected BBV dimensionality")
		seed        = flag.Int64("seed", 1, "projection seed")
		pca         = flag.Int("pca", 0, "emit only the first N principal components (0 = raw signature)")
		out         = flag.String("o", "", "write a binary trace file instead of CSV")
		verbose     = flag.Bool("v", false, "emit profiling-stage spans as JSONL on stderr")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		cf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			cf.Close()
		}()
	}
	var rt *obs.Runtime
	if *verbose {
		// CSV goes to stdout, so the span stream stays on stderr.
		rt = obs.New(obs.NewJSONLSink(os.Stderr))
	}

	tr, err := obtainTrace(*benchName, *in, *size, *granularity, *dims, *seed, rt)
	if err != nil {
		return err
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Write(f, tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d intervals (%s) to %s\n", len(tr.Intervals), tr.Kind, *out)
		return nil
	}
	return writeCSV(tr, *pca)
}

func obtainTrace(benchName, in, size, granularity string, dims int, seed int64, rt *obs.Runtime) (*phase.Trace, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	}
	if benchName == "" {
		return nil, fmt.Errorf("need -bench or -in (suite: %v)", bench.Names())
	}
	spec, err := bench.ByName(benchName)
	if err != nil {
		return nil, err
	}
	sz, err := bench.ParseSize(size)
	if err != nil {
		return nil, err
	}
	p, err := spec.Program(sz)
	if err != nil {
		return nil, err
	}
	// The coarse path preflights inside CollectBoundaries; the fine path
	// drives the emulator directly, so verify here before profiling.
	if err := staticanalysis.Preflight(p); err != nil {
		return nil, fmt.Errorf("preflight for %s: %w", p.Name, err)
	}
	proj, err := bbv.NewProjector(p.NumBlocks(), dims, seed)
	if err != nil {
		return nil, err
	}
	switch granularity {
	case "fine":
		return phase.CollectFixed(p, proj, bench.FineInterval(sz))
	case "coarse":
		cfg := coasts.Config{Dims: dims, Seed: seed, Obs: rt}
		b, err := coasts.CollectBoundaries(p, cfg)
		if err != nil {
			return nil, err
		}
		return coasts.Profile(p, b, cfg)
	}
	return nil, fmt.Errorf("unknown granularity %q", granularity)
}

func writeCSV(tr *phase.Trace, pcaDims int) error {
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

	fmt.Printf("# benchmark=%s kind=%s total=%d\n", tr.Benchmark, tr.Kind, tr.TotalInsts)
	fmt.Print("interval,start,end")
	for c := 0; c < cols; c++ {
		if pcaDims > 0 {
			fmt.Printf(",pc%d", c+1)
		} else {
			fmt.Printf(",d%d", c)
		}
	}
	fmt.Println()
	for i, iv := range tr.Intervals {
		fmt.Printf("%d,%d,%d", iv.Index, iv.Start, iv.End)
		row := iv.Vector
		if pcaDims > 0 {
			row = projected[i]
		}
		for _, x := range row {
			fmt.Printf(",%g", x)
		}
		fmt.Println()
	}
	return nil
}
