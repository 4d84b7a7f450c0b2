package kmeans

// Invariance tests for the exact shortcuts in lloyd, the seeding, and
// assignAll — partial-distance early exits, one distance computation
// per bit-distinct row, and the jump over Lloyd repair cycles — which
// must be invisible: identical assignments, centroid bits, inertia
// bits, iteration counts, and rng consumption compared to the
// unpruned reference implementation preserved below.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mlpa/internal/linalg"
	"mlpa/internal/obs"
)

// --- Frozen reference implementation (pre-pruning) ---

func refLloyd(points [][]float64, k int, rng *rand.Rand, maxIters int) *Result {
	n := len(points)
	cents := refSeedPlusPlus(points, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)

	iters := 0
	converged := false
	for iter := 0; iter < maxIters; iter++ {
		iters = iter + 1
		changed := false
		for i, p := range points {
			bi, bd := 0, math.Inf(1)
			for c := range cents {
				if dd := linalg.Dist2(p, cents[c]); dd < bd {
					bi, bd = c, dd
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		if !changed && iter > 0 {
			converged = true
			break
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
		Iters: iters, Converged: converged}
}

func refSeedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	cents := make([][]float64, 0, k)
	first := rng.Intn(n)
	cents = append(cents, append([]float64(nil), points[first]...))
	dists := make([]float64, n)
	for len(cents) < k {
		var total float64
		for i, p := range points {
			dd := math.Inf(1)
			for _, c := range cents {
				if v := linalg.Dist2(p, c); v < dd {
					dd = v
				}
			}
			dists[i] = dd
			total += dd
		}
		if total == 0 {
			cents = append(cents, append([]float64(nil), points[rng.Intn(n)]...))
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, dd := range dists {
			target -= dd
			if target <= 0 {
				idx = i
				break
			}
		}
		cents = append(cents, append([]float64(nil), points[idx]...))
	}
	return cents
}

func refAssignAll(points [][]float64, r *Result) *Result {
	out := &Result{
		K:         r.K,
		Assign:    make([]int, len(points)),
		Centroids: r.Centroids,
		Sizes:     make([]int, r.K),
	}
	for i, p := range points {
		bi, bd := 0, math.Inf(1)
		for c := range r.Centroids {
			if dd := linalg.Dist2(p, r.Centroids[c]); dd < bd {
				bi, bd = c, dd
			}
		}
		out.Assign[i] = bi
		out.Sizes[bi]++
		out.Inertia += bd
	}
	return out
}

// seededLloyd seeds one restart from rand.NewSource(seed) up to k
// centroids and runs lloyd from that seeding.
func seededLloyd(rs *rowSet, k int, seed int64, maxIters int) (*Result, int) {
	sd := newSeeding(rs, seed)
	sd.grow(rs, k)
	return lloyd(rs, sd, k, maxIters)
}

// --- Data generators: BBV-shaped matrices with heavy ties ---

// syntheticBBVs builds n sparse rows in d dimensions clustered around
// g ground-truth phase signatures, with exact duplicates (common in
// synthetic traces) and a few all-zero rows thrown in so ties and
// degenerate clusters are exercised.
func syntheticBBVs(rng *rand.Rand, n, d, g int) [][]float64 {
	protos := make([][]float64, g)
	for i := range protos {
		protos[i] = make([]float64, d)
		for j := 0; j < d/3+1; j++ {
			protos[i][rng.Intn(d)] = rng.Float64()
		}
		linalg.NormalizeL1(protos[i])
	}
	rows := make([][]float64, n)
	for i := range rows {
		switch {
		case i%17 == 0 && i > 0:
			// Exact duplicate of an earlier row.
			rows[i] = append([]float64(nil), rows[rng.Intn(i)]...)
		case i%23 == 5:
			rows[i] = make([]float64, d) // all-zero row
		default:
			p := protos[rng.Intn(g)]
			r := append([]float64(nil), p...)
			for j := range r {
				r[j] += rng.NormFloat64() * 0.01
				if r[j] < 0 {
					r[j] = 0
				}
			}
			linalg.NormalizeL1(r)
			rows[i] = r
		}
	}
	return rows
}

func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.K != want.K || got.Iters != want.Iters || got.Converged != want.Converged {
		t.Errorf("%s: K/Iters/Converged = %d/%d/%v, want %d/%d/%v",
			label, got.K, got.Iters, got.Converged, want.K, want.Iters, want.Converged)
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Errorf("%s: Inertia %v != reference %v (not bit-identical)", label, got.Inertia, want.Inertia)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("%s: Assign[%d] = %d, want %d", label, i, got.Assign[i], want.Assign[i])
		}
	}
	for c := range want.Centroids {
		for j := range want.Centroids[c] {
			if math.Float64bits(got.Centroids[c][j]) != math.Float64bits(want.Centroids[c][j]) {
				t.Fatalf("%s: Centroids[%d][%d] = %v, want %v (not bit-identical)",
					label, c, j, got.Centroids[c][j], want.Centroids[c][j])
			}
		}
	}
	for c := range want.Sizes {
		if got.Sizes[c] != want.Sizes[c] {
			t.Errorf("%s: Sizes[%d] = %d, want %d", label, c, got.Sizes[c], want.Sizes[c])
		}
	}
}

// TestLloydPruningInvariant checks the pruned lloyd against the frozen
// reference over several data shapes, seeds, and k values.
func TestLloydPruningInvariant(t *testing.T) {
	dataRng := rand.New(rand.NewSource(99))
	shapes := []struct{ n, d, g int }{
		{60, 16, 3},
		{120, 32, 5},
		{200, 24, 8},
		{40, 8, 2},
	}
	for _, sh := range shapes {
		points := syntheticBBVs(dataRng, sh.n, sh.d, sh.g)
		for _, seed := range []int64{1, 7, 12345, -3} {
			for _, k := range []int{1, 2, 3, 7, 15} {
				if k > sh.n {
					continue
				}
				got, _ := seededLloyd(newRowSet(points), k, seed, 100)
				want := refLloyd(points, k, rand.New(rand.NewSource(seed)), 100)
				sameResult(t, "lloyd", got, want)
			}
		}
	}
}

// TestSeedPlusPlusInvariant checks seeding alone: identical centroid
// choices and identical rng stream consumption (probed by drawing one
// value afterwards).
func TestSeedPlusPlusInvariant(t *testing.T) {
	dataRng := rand.New(rand.NewSource(5))
	points := syntheticBBVs(dataRng, 150, 20, 6)
	// Also a degenerate set: every point identical, forcing the
	// total==0 re-seed path and its Intn draw.
	flat := make([][]float64, 30)
	for i := range flat {
		flat[i] = []float64{0.5, 0.25, 0.25}
	}
	dups := phaseRows(dataRng, 60, 15, 8, 1)
	for _, pts := range [][][]float64{points, flat, dups} {
		for _, seed := range []int64{0, 3, 999} {
			for _, k := range []int{1, 4, 9} {
				if k > len(pts) {
					continue
				}
				rs := newRowSet(pts)
				sd := newSeeding(rs, seed)
				sd.grow(rs, k)
				rngB := rand.New(rand.NewSource(seed))
				got := sd.cents
				want := refSeedPlusPlus(pts, k, rngB)
				if len(got) != len(want) {
					t.Fatalf("centroid count %d != %d", len(got), len(want))
				}
				for c := range want {
					for j := range want[c] {
						if math.Float64bits(got[c][j]) != math.Float64bits(want[c][j]) {
							t.Fatalf("seed %d k %d: centroid %d dim %d: %v != %v",
								seed, k, c, j, got[c][j], want[c][j])
						}
					}
				}
				if a, b := sd.rng.Int63(), rngB.Int63(); a != b {
					t.Fatalf("seed %d k %d: rng streams diverged (%d != %d)", seed, k, a, b)
				}
			}
		}
	}
}

// TestAssignAllInvariant checks the sampled-clustering full-assignment
// path.
func TestAssignAllInvariant(t *testing.T) {
	dataRng := rand.New(rand.NewSource(17))
	points := syntheticBBVs(dataRng, 300, 16, 4)
	base := refLloyd(points[:40], 5, rand.New(rand.NewSource(2)), 100)
	got := assignAll(newRowSet(points), base)
	want := refAssignAll(points, base)
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Errorf("Inertia %v != reference %v", got.Inertia, want.Inertia)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("Assign[%d] = %d, want %d", i, got.Assign[i], want.Assign[i])
		}
	}
	for c := range want.Sizes {
		if got.Sizes[c] != want.Sizes[c] {
			t.Errorf("Sizes[%d] = %d, want %d", c, got.Sizes[c], want.Sizes[c])
		}
	}
}

// refStats tallies what Cluster reports per restart to its metrics.
type refStats struct {
	restarts, unconverged int64
	iterSum               float64
}

// refCluster replicates Cluster's control flow with the frozen pieces.
func refCluster(points [][]float64, k int, opts Options, st *refStats) *Result {
	o := opts.withDefaults()
	if k > len(points) {
		k = len(points)
	}
	sample := points
	if o.SampleCap > 0 && len(points) > o.SampleCap {
		stride := (len(points) + o.SampleCap - 1) / o.SampleCap
		sample = nil
		for i := 0; i < len(points); i += stride {
			sample = append(sample, points[i])
		}
		if k > len(sample) {
			k = len(sample)
		}
	}
	var best *Result
	for r := 0; r < o.Restarts; r++ {
		res := refLloyd(sample, k, rand.New(rand.NewSource(o.Seed+int64(r)*7919)), o.MaxIters)
		st.restarts++
		st.iterSum += float64(res.Iters)
		if !res.Converged {
			st.unconverged++
		}
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	if len(sample) != len(points) {
		iters, converged := best.Iters, best.Converged
		best = refAssignAll(points, best)
		best.Iters, best.Converged = iters, converged
	}
	best.BIC = bic(points, best)
	return best
}

// refBest replicates Best's model selection over refCluster.
func refBest(points [][]float64, kmax int, opts Options, st *refStats) *Result {
	o := opts.withDefaults()
	if kmax > len(points) {
		kmax = len(points)
	}
	var results []*Result
	minBIC, maxBIC := math.Inf(1), math.Inf(-1)
	for k := 1; k <= kmax; k++ {
		r := refCluster(points, k, o, st)
		results = append(results, r)
		minBIC = math.Min(minBIC, r.BIC)
		maxBIC = math.Max(maxBIC, r.BIC)
	}
	threshold := minBIC + o.BICFraction*(maxBIC-minBIC)
	chosen := results[len(results)-1]
	for _, r := range results {
		if r.BIC >= threshold {
			chosen = r
			break
		}
	}
	return chosen
}

// sameStats checks the restart telemetry against the reference tally.
func sameStats(t *testing.T, label string, reg *obs.Registry, want refStats) {
	t.Helper()
	st := reg.Histogram("kmeans.iterations").Stat()
	if st.Count != want.restarts || st.Sum != want.iterSum {
		t.Errorf("%s: kmeans.iterations count/sum = %d/%v, want %d/%v",
			label, st.Count, st.Sum, want.restarts, want.iterSum)
	}
	if n := reg.Counter("kmeans.restarts").Value(); n != want.restarts {
		t.Errorf("%s: kmeans.restarts = %d, want %d", label, n, want.restarts)
	}
	if n := reg.Counter("kmeans.unconverged").Value(); n != want.unconverged {
		t.Errorf("%s: kmeans.unconverged = %d, want %d", label, n, want.unconverged)
	}
}

// TestClusterPruningEndToEnd drives the public API with the sampled
// path enabled and telemetry attached: results must match a reference
// built from the frozen pieces, and the kmeans.iterations histogram
// must still fire once per restart.
func TestClusterPruningEndToEnd(t *testing.T) {
	dataRng := rand.New(rand.NewSource(31))
	points := syntheticBBVs(dataRng, 400, 24, 6)
	reg := obs.NewRegistry()
	opts := Options{Seed: 11, Restarts: 3, SampleCap: 100, Metrics: reg}

	got, err := Cluster(points, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	var st refStats
	want := refCluster(points, 6, opts, &st)
	sameResult(t, "cluster", got, want)
	sameStats(t, "cluster", reg, st)
	if st.restarts != int64(opts.Restarts) {
		t.Errorf("reference ran %d restarts, want %d", st.restarts, opts.Restarts)
	}
}

// --- Degenerate inputs: duplicate rows and k above the distinct count ---

// phaseRows builds n rows in d dimensions that repeat g distinct
// signatures in phase runs, the shape of a fine-level trace inside one
// coarse point: many intervals, few distinct BBVs. Rows at positions
// that are multiples of sampleStride draw only from the first half of
// the signatures, so a stride sample misses the rest; pass 1 to draw
// every row from all g. One copy of signature 0 has its zero
// coordinates negated: -0 differs from +0 in its bits but in no
// distance, which must not matter either way.
func phaseRows(rng *rand.Rand, n, d, g, sampleStride int) [][]float64 {
	sigs := make([][]float64, g)
	for s := range sigs {
		sigs[s] = make([]float64, d)
		for j := 0; j < d/3+1; j++ {
			sigs[s][rng.Intn(d)] = rng.Float64()
		}
		linalg.NormalizeL1(sigs[s])
	}
	rows := make([][]float64, n)
	cur := 0
	for i := range rows {
		if rng.Intn(4) == 0 {
			cur = rng.Intn(g)
		}
		s := cur
		if sampleStride > 1 && i%sampleStride == 0 {
			s = cur % ((g + 1) / 2)
		}
		rows[i] = append([]float64(nil), sigs[s]...)
	}
	negZero := append([]float64(nil), sigs[0]...)
	for j, v := range negZero {
		if v == 0 {
			negZero[j] = math.Copysign(0, -1)
		}
	}
	rows[n/2] = negZero
	return rows
}

func identicalRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{0.5, 0.25, 0, 0.25}
	}
	return rows
}

// TestLloydCycleJumpInvariant runs lloyd on inputs with far fewer
// distinct rows than points and k up to 30, where restarts go round
// empty-cluster repair cycles, under several MaxIters so the jump
// leaves remainders of every size. It must match the frozen reference
// bit for bit, and both savings must actually fire.
func TestLloydCycleJumpInvariant(t *testing.T) {
	dataRng := rand.New(rand.NewSource(8))
	sets := map[string][][]float64{
		"fine-60x8": phaseRows(dataRng, 60, 15, 8, 1),
		"fine-84x5": phaseRows(dataRng, 84, 15, 5, 1),
		"identical": identicalRows(40),
	}
	for _, name := range []string{"fine-60x8", "fine-84x5", "identical"} {
		points := sets[name]
		rs := newRowSet(points)
		if len(rs.uniq) >= len(points) {
			t.Fatalf("%s: %d distinct rows of %d, want duplicates", name, len(rs.uniq), len(points))
		}
		skipped := 0
		for _, maxIters := range []int{1, 2, 3, 7, 100} {
			for _, seed := range []int64{1, -3} {
				for k := 1; k <= 30 && k <= len(points); k++ {
					got, sk := seededLloyd(rs, k, seed, maxIters)
					want := refLloyd(points, k, rand.New(rand.NewSource(seed)), maxIters)
					sameResult(t, fmt.Sprintf("%s maxIters=%d seed=%d k=%d", name, maxIters, seed, k), got, want)
					skipped += sk
				}
			}
		}
		if skipped == 0 {
			t.Errorf("%s: no iteration was jumped over", name)
		}
	}
}

// TestBestCycleJumpInvariant drives Best and Cluster on duplicate-heavy
// inputs, with and without a binding SampleCap, against a Best built
// from the frozen pieces: the same chosen k, BIC bits and Result, the
// same kmeans.iterations histogram, and a non-zero
// kmeans.skipped_iterations.
func TestBestCycleJumpInvariant(t *testing.T) {
	dataRng := rand.New(rand.NewSource(21))
	cases := []struct {
		name   string
		points [][]float64
		kmax   int
		opts   Options
	}{
		{"fine", phaseRows(dataRng, 60, 15, 8, 1), 30, Options{Seed: 1, BICFraction: 0.99}},
		{"coarse", phaseRows(dataRng, 44, 15, 2, 1), 3, Options{Seed: 2}},
		{"identical", identicalRows(40), 30, Options{Seed: 3}},
		// Stride 6: sampled rows repeat signatures 0..4, and the rows
		// between them repeat those and signatures 5..9 besides.
		{"sampled", phaseRows(dataRng, 300, 15, 10, 6), 30, Options{Seed: 4, SampleCap: 50, BICFraction: 0.99}},
	}
	for _, c := range cases {
		ds := newDataset(c.points, c.opts.SampleCap)
		if n := len(ds.sample.points); len(ds.sample.uniq) >= n || len(ds.all.uniq) >= len(c.points) {
			t.Fatalf("%s: %d/%d distinct sample rows, %d/%d distinct rows, want duplicates in both",
				c.name, len(ds.sample.uniq), n, len(ds.all.uniq), len(c.points))
		}

		reg := obs.NewRegistry()
		opts := c.opts
		opts.Metrics = reg
		got, err := Best(c.points, c.kmax, opts)
		if err != nil {
			t.Fatal(err)
		}
		var st refStats
		want := refBest(c.points, c.kmax, c.opts, &st)
		sameResult(t, c.name+" Best", got, want)
		if math.Float64bits(got.BIC) != math.Float64bits(want.BIC) {
			t.Errorf("%s: BIC %v != reference %v (not bit-identical)", c.name, got.BIC, want.BIC)
		}
		sameStats(t, c.name+" Best", reg, st)
		if reg.Counter("kmeans.skipped_iterations").Value() == 0 {
			t.Errorf("%s: kmeans.skipped_iterations = 0, want > 0", c.name)
		}

		for _, k := range []int{2, c.kmax} {
			got, err := Cluster(c.points, k, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			want := refCluster(c.points, k, c.opts, &refStats{})
			sameResult(t, fmt.Sprintf("%s Cluster k=%d", c.name, k), got, want)
		}
	}
}
