package kmeans_test

import (
	"fmt"
	"testing"

	"mlpa/internal/bbv"
	"mlpa/internal/bench"
	"mlpa/internal/coasts"
	"mlpa/internal/experiments"
	"mlpa/internal/kmeans"
	"mlpa/internal/phase"
	"mlpa/internal/prog"
	"mlpa/internal/simpoint"
)

// table2Programs are the seven programs of perfbench's table2 workload.
var table2Programs = []string{"gzip", "mcf", "bzip2", "swim", "art", "equake", "lucas"}

// TestKMeansMatchesFrozenLoopOnPrograms compares Best and Cluster with
// the frozen loop on the rows the harness clusters: the tiny SimPoint
// trace of each table2 program, and, for lucas and gzip, the fine rows
// multilevel.Resample clusters inside each coarse point above its
// threshold, where k exceeds the distinct row count and empty-cluster
// repairs run every iteration. The coarse-point rows run every
// combination of seed (1, -3, 7919), SampleCap (off and binding) and
// MaxIters (1, 2, 3, 7, 100). The whole-program traces, 2.3 to 3.9
// thousand rows each, run the harness's own setting (seed 1, the
// binding 2000-row cap, 100 iterations) and one more combination each,
// chosen so the seven cover every seed, cap and MaxIters value. Under
// the race detector, which finds nothing to race in this sequential
// code, only the harness setting and seed 1 run.
func TestKMeansMatchesFrozenLoopOnPrograms(t *testing.T) {
	fine := experiments.FineConfig(bench.FineInterval(bench.SizeTiny), 1, nil)
	check := func(label string, rows [][]float64, seed int64, sampleCap, maxIters int) {
		t.Helper()
		opts := kmeans.Options{Seed: seed, SampleCap: sampleCap, MaxIters: maxIters, BICFraction: fine.BICFraction}
		kmeans.CheckAgainstFrozen(t, fmt.Sprintf("%s (%d rows) seed=%d cap=%d iters=%d",
			label, len(rows), seed, sampleCap, maxIters), rows, fine.Kmax, opts)
	}

	extra := []struct {
		seed             int64
		sampleCap, iters int
	}{
		{-3, fine.SampleCap, 1}, {7919, 0, 2}, {1, 0, 3}, {-3, 0, 7},
		{7919, fine.SampleCap, 100}, {-3, fine.SampleCap, 100}, {1, 0, 100},
	}
	for i, name := range table2Programs {
		tr, err := simpoint.Profile(program(t, name), fine)
		if err != nil {
			t.Fatal(err)
		}
		rows := tr.Vectors()
		if len(rows) <= fine.SampleCap {
			t.Fatalf("%s: %d rows, want more than the %d-row sample cap", name, len(rows), fine.SampleCap)
		}
		check(name, rows, fine.Seed, fine.SampleCap, 100)
		if e := extra[i]; !kmeans.RaceEnabled {
			check(name, rows, e.seed, e.sampleCap, e.iters)
		}
	}

	for _, name := range []string{"lucas", "gzip"} {
		p := program(t, name)
		co, _, _, err := coasts.Select(p, coasts.Config{Kmax: experiments.CoarseKmax, Seed: fine.Seed})
		if err != nil {
			t.Fatal(err)
		}
		proj, err := bbv.NewProjector(p.NumBlocks(), bbv.DefaultDims, fine.Seed)
		if err != nil {
			t.Fatal(err)
		}
		threshold := fine.IntervalLen * uint64(fine.Kmax)
		resampled := 0
		for ci, cp := range co.Points {
			if cp.Len() <= threshold {
				continue
			}
			tr, err := phase.CollectFixedRange(p, proj, fine.IntervalLen, cp.Start, cp.End)
			if err != nil {
				t.Fatal(err)
			}
			rows := tr.Vectors()
			label := fmt.Sprintf("%s coarse point %d", name, ci)
			seeds := []int64{1, -3, 7919}
			if kmeans.RaceEnabled {
				seeds = seeds[:1]
			}
			for _, seed := range seeds {
				// A cap of a third of the rows binds; 0 clusters them all.
				for _, sampleCap := range []int{0, len(rows)/3 + 1} {
					for _, maxIters := range []int{1, 2, 3, 7, 100} {
						check(label, rows, seed, sampleCap, maxIters)
					}
				}
			}
			resampled++
		}
		if resampled == 0 {
			t.Fatalf("%s: no coarse point above the resampling threshold", name)
		}
	}
}

func program(t *testing.T, name string) *prog.Program {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Program(bench.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
