package kmeans

// Invariance tests for the replayed restart streams: each restart's
// generator is seeded once per Cluster or Best call and every k reads
// its values back from a log. The frozen reference below is the
// clustering loop before that change, which seeded a fresh
// rand.NewSource for every k and restart.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// --- Frozen reference: one rand.NewSource per k and restart ---

func reseedCluster(ds *dataset, k int, opts Options) *Result {
	if n := len(ds.sample.points); k > n {
		k = n
	}
	var best *Result
	for r := 0; r < opts.Restarts; r++ {
		rng := rand.New(rand.NewSource(opts.Seed + int64(r)*7919))
		res, _ := lloyd(ds.sample, k, rng, opts.MaxIters)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	if ds.sample != ds.all {
		iters, converged := best.Iters, best.Converged
		best = assignAll(ds.all, best)
		best.Iters, best.Converged = iters, converged
	}
	best.BIC = bic(ds.all.points, best)
	return best
}

func reseedBest(points [][]float64, kmax int, opts Options) *Result {
	opts = opts.withDefaults()
	if kmax > len(points) {
		kmax = len(points)
	}
	ds := newDataset(points, opts.SampleCap)
	var results []*Result
	minBIC, maxBIC := math.Inf(1), math.Inf(-1)
	for k := 1; k <= kmax; k++ {
		r := reseedCluster(ds, k, opts)
		results = append(results, r)
		minBIC = math.Min(minBIC, r.BIC)
		maxBIC = math.Max(maxBIC, r.BIC)
	}
	threshold := minBIC + opts.BICFraction*(maxBIC-minBIC)
	chosen := results[len(results)-1]
	for _, r := range results {
		if r.BIC >= threshold {
			chosen = r
			break
		}
	}
	return chosen
}

// TestReplaySourceMatchesNewSource: readers of one log, whichever of
// them extends it, each see rand.NewSource(seed)'s stream from its
// start, and Seed restarts a reader on the new seed's stream.
func TestReplaySourceMatchesNewSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 7919, -42} {
		log := newStreamLog(seed)
		for _, n := range []int{5, 2, 40, 40, 0, 100} {
			ref := rand.NewSource(seed)
			s := &replaySource{log: log}
			for i := 0; i < n; i++ {
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d, reader of %d draws: draw %d = %d, want %d", seed, n, i, got, want)
				}
			}
		}
		if len(log.vals) != 100 {
			t.Errorf("seed %d: log holds %d values, want the longest reader's 100", seed, len(log.vals))
		}

		// Two readers interleaved share the log without disturbing each
		// other's position.
		a, b := &replaySource{log: log}, &replaySource{log: log}
		refA, refB := rand.NewSource(seed), rand.NewSource(seed)
		for i := 0; i < 150; i++ {
			if a.Int63() != refA.Int63() || (i%3 == 0 && b.Int63() != refB.Int63()) {
				t.Fatalf("seed %d: interleaved readers diverged at draw %d", seed, i)
			}
		}

		s := &replaySource{log: log}
		s.Int63()
		s.Seed(seed + 1)
		ref := rand.NewSource(seed + 1)
		for i := 0; i < 10; i++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: after Seed(%d), draw %d = %d, want %d", seed, seed+1, i, got, want)
			}
		}
		if s.log == log {
			t.Errorf("seed %d: Seed kept the old log", seed)
		}
	}
}

// TestStreamReplayMatchesReseeding: Best and Cluster over replayed
// streams return bit-identical results to the per-k reseeding
// reference at several seeds, with and without a binding SampleCap.
func TestStreamReplayMatchesReseeding(t *testing.T) {
	dataRng := rand.New(rand.NewSource(41))
	sets := []struct {
		name   string
		points [][]float64
		opts   Options
	}{
		{"bbv", syntheticBBVs(dataRng, 150, 20, 6), Options{BICFraction: 0.99}},
		{"phases", phaseRows(dataRng, 90, 15, 8, 1), Options{}},
		{"sampled", syntheticBBVs(dataRng, 400, 16, 7), Options{SampleCap: 60, BICFraction: 0.99}},
		{"identical", identicalRows(30), Options{Restarts: 5}},
	}
	for _, set := range sets {
		for _, seed := range []int64{1, 2, 12345, -9} {
			opts := set.opts
			opts.Seed = seed
			label := fmt.Sprintf("%s seed %d", set.name, seed)

			got, err := Best(set.points, 30, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := reseedBest(set.points, 30, opts)
			sameResult(t, label+" Best", got, want)
			if math.Float64bits(got.BIC) != math.Float64bits(want.BIC) {
				t.Errorf("%s Best: BIC %v != reference %v", label, got.BIC, want.BIC)
			}

			for _, k := range []int{1, 4, 30} {
				got, err := Cluster(set.points, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				o := opts.withDefaults()
				want := reseedCluster(newDataset(set.points, o.SampleCap), k, o)
				sameResult(t, fmt.Sprintf("%s Cluster k=%d", label, k), got, want)
			}
		}
	}
}
