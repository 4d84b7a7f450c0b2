package kmeans

// Differential tests for the reuse across k and Lloyd iterations: one
// k-means++ seeding per restart grown up to Kmax, the seeding's running
// argmin as the first assignment, assignment scans that start from each
// row's previous centroid, centroid updates limited to the clusters
// whose members changed, and one distance per (distinct row, cluster)
// in the repair search and the final inertia. The frozen reference
// below is the clustering loop before those changes: it seeds every k
// from a fresh rand.NewSource, scans every centroid from the first,
// recomputes every centroid, and measures every point in the repair
// search and the inertia. Results and kmeans.* metrics must match it
// bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mlpa/internal/linalg"
	"mlpa/internal/obs"
)

// --- Frozen reference: per-k seeding and full passes ---

func frozenCluster(ds *dataset, k int, opts Options) *Result {
	if n := len(ds.sample.points); k > n {
		k = n
	}
	var best *Result
	for r := 0; r < opts.Restarts; r++ {
		rng := rand.New(rand.NewSource(opts.Seed + int64(r)*7919))
		res, skipped := frozenLloyd(ds.sample, k, rng, opts.MaxIters)
		opts.Metrics.Counter("kmeans.restarts").Inc()
		opts.Metrics.Counter("kmeans.skipped_iterations").Add(int64(skipped))
		opts.Metrics.Histogram("kmeans.iterations").Observe(float64(res.Iters))
		if !res.Converged {
			opts.Metrics.Counter("kmeans.unconverged").Inc()
		}
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

func frozenBest(points [][]float64, kmax int, opts Options) *Result {
	opts = opts.withDefaults()
	if kmax > len(points) {
		kmax = len(points)
	}
	ds := newDataset(points, opts.SampleCap)
	results := make([]*Result, 0, kmax)
	minBIC, maxBIC := math.Inf(1), math.Inf(-1)
	for k := 1; k <= kmax; k++ {
		r := frozenCluster(ds, k, opts)
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
	opts.Metrics.Histogram("kmeans.chosen_k").Observe(float64(chosen.K))
	return chosen
}

func frozenLloyd(rs *rowSet, k int, rng *rand.Rand, maxIters int) (*Result, int) {
	points := rs.points
	n := len(points)
	cents := frozenSeedPlusPlus(rs, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)

	iters, converged, skipped := maxIters, false, 0
	snapAt := -1
	for iter := 0; iter < maxIters; iter++ {
		for u, i := range rs.uniq {
			rs.near[u], _ = nearestCentroid(points[i], cents)
		}
		changed := false
		for i, u := range rs.of {
			if bi := rs.near[u]; assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		if !changed && iter > 0 {
			iters, converged = iter+1, true
			break
		}
		if snapAt >= 0 && slices.Equal(assign, rs.snap) {
			period := iter - snapAt
			jump := (maxIters - 1 - iter) / period * period
			iter += jump
			skipped += jump
		}
		if iter&(iter+1) == 0 {
			copy(rs.snap, assign)
			snapAt = iter
		}
		for c := range cents {
			for j := range cents[c] {
				cents[c][j] = 0
			}
			sizes[c] = 0
		}
		for i, p := range points {
			c := assign[i]
			sizes[c]++
			linalg.AXPY(cents[c], 1, p)
		}
		for c := range cents {
			if sizes[c] == 0 {
				far, fd := 0, -1.0
				for i, p := range points {
					if dd := linalg.Dist2(p, cents[assign[i]]); dd > fd && sizes[assign[i]] > 1 {
						far, fd = i, dd
					}
				}
				copy(cents[c], points[far])
				sizes[assign[far]]--
				assign[far] = c
				sizes[c] = 1
				continue
			}
			linalg.Scale(cents[c], 1/float64(sizes[c]))
		}
	}

	for c := range sizes {
		sizes[c] = 0
	}
	var inertia float64
	for i, p := range points {
		sizes[assign[i]]++
		inertia += linalg.Dist2(p, cents[assign[i]])
	}
	return &Result{K: k, Assign: assign, Centroids: cents, Sizes: sizes, Inertia: inertia,
		Iters: iters, Converged: converged}, skipped
}

func frozenSeedPlusPlus(rs *rowSet, k int, rng *rand.Rand) [][]float64 {
	points := rs.points
	n := len(points)
	cents := make([][]float64, 0, k)
	first := rng.Intn(n)
	cents = append(cents, append([]float64(nil), points[first]...))
	dists := rs.dist
	for u := range dists {
		dists[u] = math.Inf(1)
	}
	for len(cents) < k {
		newest := cents[len(cents)-1]
		for u, i := range rs.uniq {
			if v := linalg.Dist2Bounded(points[i], newest, dists[u]); v < dists[u] {
				dists[u] = v
			}
		}
		var total float64
		for _, u := range rs.of {
			total += dists[u]
		}
		if total == 0 {
			cents = append(cents, append([]float64(nil), points[rng.Intn(n)]...))
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, u := range rs.of {
			target -= dists[u]
			if target <= 0 {
				idx = i
				break
			}
		}
		cents = append(cents, append([]float64(nil), points[idx]...))
	}
	return cents
}

// --- Comparison ---

// resultBits is a Result with every float replaced by its bits, so
// signed zeros and infinities compare exactly. Every NaN maps to one
// pattern: Go leaves a NaN result's payload unspecified, and when both
// operands of a sum are NaN, which payload survives depends on the
// operand order the compiler picks for a commutative add, which two
// compilations of the same arithmetic need not share.
type resultBits struct {
	K, Iters  int
	Converged bool
	Assign    []int
	Sizes     []int
	Centroids [][]uint64
	Inertia   uint64
	BIC       uint64
}

func bitsOf(r *Result) resultBits {
	b := resultBits{K: r.K, Iters: r.Iters, Converged: r.Converged, Assign: r.Assign, Sizes: r.Sizes,
		Inertia: floatBits(r.Inertia), BIC: floatBits(r.BIC)}
	for _, c := range r.Centroids {
		row := make([]uint64, len(c))
		for j, v := range c {
			row[j] = floatBits(v)
		}
		b.Centroids = append(b.Centroids, row)
	}
	return b
}

func floatBits(v float64) uint64 {
	if math.IsNaN(v) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// kmeansMetrics returns reg's kmeans.* counters and histograms without
// kmeans.seed_rounds, which the frozen loop does not count.
func kmeansMetrics(reg *obs.Registry) obs.Snapshot {
	s := reg.Snapshot()
	delete(s.Counters, "kmeans.seed_rounds")
	return s
}

// checkAgainstFrozen runs Best at kmax and Cluster at k = 1, 2 and kmax
// on points under opts, and the frozen loop on the same, and requires
// identical Result bits and identical kmeans.* metrics. It also
// requires kmeans.seed_rounds to count one round per centroid and
// restart: min(k, sample size) per restart for each call.
func checkAgainstFrozen(t testing.TB, label string, points [][]float64, kmax int, opts Options) {
	t.Helper()
	nSample := len(newDataset(points, opts.SampleCap).sample.points)
	check := func(name string, k int, run func(Options) (*Result, error), frozen func(Options) *Result) {
		t.Helper()
		got, want := obs.NewRegistry(), obs.NewRegistry()
		o := opts
		o.Metrics = got
		r, err := run(o)
		if err != nil {
			t.Fatalf("%s %s: %v", label, name, err)
		}
		o.Metrics = want
		w := frozen(o)
		if !reflect.DeepEqual(bitsOf(r), bitsOf(w)) {
			t.Fatalf("%s %s: result\n%+v\nfrozen loop\n%+v", label, name, bitsOf(r), bitsOf(w))
		}
		if g, w := kmeansMetrics(got), kmeansMetrics(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s %s: metrics\n%+v\nfrozen loop\n%+v", label, name, g, w)
		}
		wantRounds := int64(o.withDefaults().Restarts * min(k, len(points), nSample))
		if n := got.Counter("kmeans.seed_rounds").Value(); n != wantRounds {
			t.Errorf("%s %s: kmeans.seed_rounds = %d, want %d", label, name, n, wantRounds)
		}
	}
	check(fmt.Sprintf("Best kmax=%d", kmax), kmax,
		func(o Options) (*Result, error) { return Best(points, kmax, o) },
		func(o Options) *Result { return frozenBest(points, kmax, o) })
	for _, k := range []int{1, 2, kmax} {
		check(fmt.Sprintf("Cluster k=%d", k), k,
			func(o Options) (*Result, error) { return Cluster(points, k, o) },
			func(o Options) *Result {
				o = o.withDefaults()
				return frozenCluster(newDataset(points, o.SampleCap), k, o)
			})
	}
}

// specialRows repeats a few rows that hold NaN, ±Inf, -0 and huge
// values among ordinary ones, so distances, sums and means go NaN or
// infinite in every combination the loops compare.
func specialRows(rng *rand.Rand, n int) [][]float64 {
	palette := []float64{0, 0.25, 0.5, 1, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, -3}
	protos := make([][]float64, 9)
	for i := range protos {
		protos[i] = make([]float64, 4)
		for j := range protos[i] {
			// Mostly ordinary values; specials in about one coordinate in four.
			if rng.Intn(4) == 0 {
				protos[i][j] = palette[4+rng.Intn(len(palette)-4)]
			} else {
				protos[i][j] = palette[rng.Intn(4)]
			}
		}
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = append([]float64(nil), protos[rng.Intn(len(protos))]...)
	}
	return rows
}

// TestKMeansMatchesFrozenLoop compares Best and Cluster with the
// frozen loop on BBV-like, phase-run, identical and NaN/±Inf rows, at
// three seeds, with SampleCap binding and not, and at MaxIters 1, 2,
// 3, 7 and 100. The SimPoint traces and coarse-point rows of real
// programs are compared in TestKMeansMatchesFrozenLoopOnPrograms.
// Under the race detector only seed 1 runs.
func TestKMeansMatchesFrozenLoop(t *testing.T) {
	dataRng := rand.New(rand.NewSource(77))
	sets := []struct {
		name   string
		points [][]float64
		kmax   int
	}{
		{"bbv", syntheticBBVs(dataRng, 120, 16, 5), 30},
		// Stride 6 under a cap of 40: sampled rows repeat half the
		// signatures, the rows between them all ten.
		{"phases", phaseRows(dataRng, 240, 15, 10, 6), 30},
		{"coarse", phaseRows(dataRng, 44, 15, 2, 1), 3},
		{"identical", identicalRows(40), 30},
		{"special", specialRows(dataRng, 90), 12},
	}
	seeds := []int64{1, -3, 7919}
	if raceEnabled {
		seeds = seeds[:1]
	}
	for _, set := range sets {
		for _, seed := range seeds {
			for _, sampleCap := range []int{0, 40} {
				for _, maxIters := range []int{1, 2, 3, 7, 100} {
					opts := Options{Seed: seed, SampleCap: sampleCap, MaxIters: maxIters, BICFraction: 0.99}
					label := fmt.Sprintf("%s seed=%d cap=%d iters=%d", set.name, seed, sampleCap, maxIters)
					checkAgainstFrozen(t, label, set.points, set.kmax, opts)
				}
			}
		}
	}
}

// repairThenClean are small sets on which a Lloyd restart repairs an
// empty cluster and then runs an iteration with none (Cluster at the
// given k, seed 3). After a repair the centroids are not the means of
// their clusters, so the next update must recompute all of them. On
// the third set an update that trusted them would keep the donor
// cluster's stale centroid. Such sets are rare: random searches over
// small integer sets found the first two among 20,000 and the third
// among 200,000, and BBV-like rows repair in cycles instead.
var repairThenClean = []struct {
	k    int
	rows [][]float64
}{
	{5, [][]float64{{5, 8}, {8, 6}, {8, 5}, {2, 4}, {5, 3}, {9, 3}, {8, 5}, {8, 6}, {7, 4}, {3, 5}, {4, 1}, {1, 5}, {4, 8}, {9, 8}, {0, 6}}},
	{4, [][]float64{{0, 6}, {0, 9}, {7, 7}, {7, 2}, {9, 3}, {2, 2}, {5, 3}, {2, 8}, {1, 1}}},
	{6, [][]float64{{2, 0}, {6, 2}, {8, 2}, {8, 7}, {0, 3}, {4, 3}, {6, 1}, {5, 9}, {3, 7}, {9, 0},
		{9, 1}, {5, 6}, {0, 4}, {3, 0}, {7, 1}, {9, 7}, {2, 5}, {8, 9}, {5, 8}, {0, 0}}},
}

// TestKMeansRepairThenClean compares Best and Cluster with the frozen
// loop on repairThenClean at every MaxIters that reaches the clean
// iteration.
func TestKMeansRepairThenClean(t *testing.T) {
	for i, c := range repairThenClean {
		for _, maxIters := range []int{2, 3, 7, 100} {
			checkAgainstFrozen(t, fmt.Sprintf("set %d iters=%d", i, maxIters), c.rows, c.k, Options{Seed: 3, MaxIters: maxIters})
		}
	}
}

// TestNearestFromMatchesScan: starting the scan from any centroid
// gives the plain scan's index, on centroids with many exact ties and
// with NaN and infinite coordinates.
func TestNearestFromMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	values := []float64{0, 1, 2, 0, 1, 2, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	draw := func(d int, specials bool) []float64 {
		v := make([]float64, d)
		for j := range v {
			n := 3
			if specials && rng.Intn(3) == 0 {
				n = len(values)
			}
			v[j] = values[rng.Intn(n)]
		}
		return v
	}
	for trial := 0; trial < 3000; trial++ {
		d, k := 1+rng.Intn(5), 1+rng.Intn(9)
		specials := trial%2 == 1
		cents := make([][]float64, k)
		for c := range cents {
			cents[c] = draw(d, specials)
		}
		p := draw(d, specials)
		want, _ := nearestCentroid(p, cents)
		for prev := range cents {
			if got := nearestFrom(p, cents, prev); got != want {
				t.Fatalf("row %v, centroids %v: scan from %d chose %d, plain scan %d", p, cents, prev, got, want)
			}
		}
	}
}

// TestStreamReplayMatchesReseeding: Best and Cluster, which seed each
// restart once per call and grow the seeding with k, return
// bit-identical results to the per-k reseeding of the frozen loop at
// several seeds, with and without a binding SampleCap.
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
			want := frozenBest(set.points, 30, opts)
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
				want := frozenCluster(newDataset(set.points, o.SampleCap), k, o)
				sameResult(t, fmt.Sprintf("%s Cluster k=%d", label, k), got, want)
			}
		}
	}
}

// fuzzPalette holds the values fuzzed rows draw from: few enough for
// duplicate rows and exact ties, with NaN, ±Inf, -0 and extremes.
var fuzzPalette = []float64{0, 1, 0.5, 0.25, 2, -1, 3, 1e-300, 1e300,
	math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.125, 7, 0.75}

// FuzzKMeansVsReference decodes rows from the fuzz input (a dimension,
// then one palette index per coordinate) and requires Best and Cluster
// to match the frozen loop under the fuzzed seed, Kmax, MaxIters and
// SampleCap.
func FuzzKMeansVsReference(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 1, 2, 3, 2, 3, 4, 5, 0, 1}, int64(1), uint8(5), uint8(100), uint8(0))
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 10, 0, 0, 1, 1, 1}, int64(-3), uint8(8), uint8(3), uint8(4))
	f.Add([]byte{1, 0, 0, 0, 0, 1, 1, 1, 11, 12, 9, 0, 0, 0, 2, 2}, int64(7919), uint8(30), uint8(7), uint8(0))
	f.Add([]byte{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4}, int64(42), uint8(6), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, kmax, maxIters, sampleCap uint8) {
		if len(data) < 2 {
			return
		}
		d := 1 + int(data[0])%6
		var points [][]float64
		for i := 1; i+d <= len(data) && len(points) < 96; i += d {
			row := make([]float64, d)
			for j := range row {
				row[j] = fuzzPalette[int(data[i+j])%len(fuzzPalette)]
			}
			points = append(points, row)
		}
		if len(points) == 0 {
			return
		}
		iters := 1 + int(maxIters)%12
		if maxIters >= 200 {
			iters = 100
		}
		opts := Options{Seed: seed, MaxIters: iters, SampleCap: int(sampleCap) % 48, BICFraction: 0.99}
		checkAgainstFrozen(t, "fuzz", points, 1+int(kmax)%30, opts)
	})
}
