// Package kmeans implements the clustering stage of the SimPoint
// pipeline: Lloyd's k-means with k-means++ seeding, deterministic
// multi-restart, empty-cluster repair, and Bayesian Information
// Criterion (BIC) model selection over k = 1..Kmax using the
// Pelleg-Moore (X-means) approximation, with SimPoint's rule of
// choosing the smallest k whose BIC reaches a fixed fraction of the
// observed BIC range.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mlpa/internal/linalg"
	"mlpa/internal/obs"
)

// Options controls clustering.
type Options struct {
	// Seed makes runs deterministic. Two identical calls always
	// return identical results.
	Seed int64
	// MaxIters bounds Lloyd iterations per restart (default 100).
	MaxIters int
	// Restarts is the number of seeded attempts per k; the attempt
	// with the lowest inertia wins (default 3).
	Restarts int
	// BICFraction is the fraction of the BIC range a k must reach to
	// be chosen by Best (default 0.9, the SimPoint setting).
	BICFraction float64
	// SampleCap, when positive, clusters a deterministic stride sample
	// of at most this many points and then assigns every point to the
	// nearest sample centroid — the technique SimPoint uses to bound
	// clustering cost on long traces. 0 clusters all points.
	SampleCap int

	// Metrics, if non-nil, receives clustering telemetry: histogram
	// kmeans.iterations (Lloyd iterations per restart), counter
	// kmeans.restarts, histogram kmeans.chosen_k (Best only), counter
	// kmeans.unconverged (restarts that hit MaxIters) and counter
	// kmeans.skipped_iterations (Lloyd iterations jumped over once a
	// restart was found to cycle; they still count in
	// kmeans.iterations) and counter kmeans.seed_rounds (k-means++
	// rounds, one per centroid each restart's seeding adds; a Best call
	// seeds each restart once, up to Kmax).
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 100
	}
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
	if o.BICFraction <= 0 || o.BICFraction > 1 {
		o.BICFraction = 0.9
	}
	return o
}

// Result is one clustering of the data.
type Result struct {
	K         int
	Assign    []int       // Assign[i] = cluster of point i
	Centroids [][]float64 // K centroids
	Sizes     []int       // points per cluster
	Inertia   float64     // total within-cluster squared distance
	BIC       float64

	// Iters is the number of Lloyd iterations the winning restart ran;
	// Converged reports whether it reached a fixed point before
	// MaxIters (convergence telemetry for the observability layer).
	Iters     int
	Converged bool
}

// Cluster runs k-means for a fixed k.
func Cluster(points [][]float64, k int, opts Options) (*Result, error) {
	if err := validate(points); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("kmeans: k = %d < 1", k)
	}
	opts = opts.withDefaults()
	ds := newDataset(points, opts.SampleCap)
	r := ds.cluster(k, opts)
	opts.Metrics.Counter("kmeans.seed_rounds").Add(int64(ds.rounds))
	return r, nil
}

// validate rejects an empty or ragged point set.
func validate(points [][]float64) error {
	if len(points) == 0 {
		return fmt.Errorf("kmeans: no points")
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return fmt.Errorf("kmeans: point %d has dimension %d, want %d", i, len(p), d)
		}
	}
	return nil
}

// dataset is a validated point set prepared once per Cluster or Best
// call and shared by every k and restart.
type dataset struct {
	all *rowSet
	// sample is the set Lloyd runs on: a deterministic stride sample
	// of all when SampleCap binds, otherwise all itself.
	sample *rowSet
	// seeds[r] is restart r's k-means++ seeding of sample, grown to the
	// current k. Calls to cluster must not decrease k.
	seeds []*seeding
	// rounds counts the seeding rounds run (kmeans.seed_rounds).
	rounds int
}

func newDataset(points [][]float64, sampleCap int) *dataset {
	ds := &dataset{all: newRowSet(points)}
	ds.sample = ds.all
	if n := len(points); sampleCap > 0 && n > sampleCap {
		stride := (n + sampleCap - 1) / sampleCap
		sample := make([][]float64, 0, sampleCap+1)
		for i := 0; i < n; i += stride {
			sample = append(sample, points[i])
		}
		ds.sample = newRowSet(sample)
	}
	return ds
}

// cluster runs opts.Restarts seeded Lloyd attempts for one k, keeps
// the lowest inertia, and scores it on every point.
func (ds *dataset) cluster(k int, opts Options) *Result {
	if n := len(ds.sample.points); k > n {
		k = n
	}
	for r := len(ds.seeds); r < opts.Restarts; r++ {
		ds.seeds = append(ds.seeds, newSeeding(ds.sample, opts.Seed+int64(r)*7919))
	}
	var best *Result
	for r := 0; r < opts.Restarts; r++ {
		ds.rounds += ds.seeds[r].grow(ds.sample, k)
		res, skipped := lloyd(ds.sample, ds.seeds[r], k, opts.MaxIters)
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

// rowSet indexes the bit-distinct rows of a point set and holds the
// scratch the clustering loops reuse. Nearest-centroid and k-means++
// distances are pure functions of a row's bits and the centroids, so
// they are computed once per distinct row (uniq) and read back per
// point through of; every loop that sums over points still walks them
// in point order, which keeps each floating-point sum bit-identical.
type rowSet struct {
	points [][]float64
	uniq   []int     // index of each distinct row's first occurrence, in point order
	of     []int     // of[i] = position in uniq of points[i]'s row
	near   []int     // per distinct row: nearest centroid
	dist   []float64 // per distinct row: distance to a centroid, scratch of one pass
	snap   []int     // lloyd's cycle-detection snapshot of the assignment vector
}

// newRowSet buckets rows by a hash of their bits in an open-addressing
// table and decides equality by a bitwise compare, so a collision can
// cost a probe but never merges two different rows.
func newRowSet(points [][]float64) *rowSet {
	n := len(points)
	rs := &rowSet{points: points, of: make([]int, n), snap: make([]int, n)}
	size := 1
	for size < 2*n {
		size <<= 1
	}
	table := make([]int32, size) // position in uniq + 1; 0 is an empty slot
	for i, p := range points {
		slot := rowHash(p) & uint64(size-1)
		for {
			u := int(table[slot]) - 1
			if u < 0 {
				table[slot] = int32(len(rs.uniq) + 1)
				rs.of[i] = len(rs.uniq)
				rs.uniq = append(rs.uniq, i)
				break
			}
			if sameBits(points[rs.uniq[u]], p) {
				rs.of[i] = u
				break
			}
			slot = (slot + 1) & uint64(size-1)
		}
	}
	rs.near = make([]int, len(rs.uniq))
	rs.dist = make([]float64, len(rs.uniq))
	return rs
}

func rowHash(p []float64) uint64 {
	h := uint64(len(p))
	for _, v := range p {
		h = (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

func sameBits(a, b []float64) bool {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// assignAll maps every point to the nearest centroid of a clustering
// computed on a sample, recomputing sizes and inertia.
func assignAll(rs *rowSet, r *Result) *Result {
	out := &Result{
		K:         r.K,
		Assign:    make([]int, len(rs.points)),
		Centroids: r.Centroids,
		Sizes:     make([]int, r.K),
	}
	for u, i := range rs.uniq {
		rs.near[u], rs.dist[u] = nearestCentroid(rs.points[i], r.Centroids)
	}
	for i, u := range rs.of {
		bi := rs.near[u]
		out.Assign[i] = bi
		out.Sizes[bi]++
		out.Inertia += rs.dist[u]
	}
	return out
}

// nearestCentroid returns the index of the centroid nearest to p and
// the exact squared distance to it. The scan prunes with
// linalg.Dist2Bounded using the best distance so far as the bound:
// a candidate abandoned early is provably farther than the incumbent,
// and a candidate that survives has its exact Dist2 value, so the
// (index, distance) pair — including first-wins tie-breaking under the
// strict < comparison — is identical to an unpruned scan.
func nearestCentroid(p []float64, cents [][]float64) (int, float64) {
	bi, bd := 0, math.Inf(1)
	for c := range cents {
		if dd := linalg.Dist2Bounded(p, cents[c], bd); dd < bd {
			bi, bd = c, dd
		}
	}
	return bi, bd
}

// nearestFrom is nearestCentroid's index, found by a scan that starts
// from centroid prev as the incumbent. When prev is still the nearest,
// as it mostly is after Lloyd's first iterations, the bound is tight
// from the start and every other candidate is abandoned early. The
// result is the same: the smallest index among the centroids at the
// minimum distance. Candidates before prev therefore also win a tie
// with prev, and a prev at a NaN or infinite distance, which bounds
// nothing, falls back to the plain scan.
func nearestFrom(p []float64, cents [][]float64, prev int) int {
	bd := linalg.Dist2(p, cents[prev])
	if !(bd < math.Inf(1)) {
		bi, _ := nearestCentroid(p, cents)
		return bi
	}
	bi := prev
	for c := 0; c < prev; c++ {
		if dd := linalg.Dist2Bounded(p, cents[c], bd); dd < bd || (dd == bd && bi == prev) {
			bi, bd = c, dd
		}
	}
	for c := prev + 1; c < len(cents); c++ {
		if dd := linalg.Dist2Bounded(p, cents[c], bd); dd < bd {
			bi, bd = c, dd
		}
	}
	return bi
}

// seeding is one restart's k-means++ seeding of a row set, grown one
// centroid at a time. The round that picks centroid j reads only the
// centroids before it and the restart's random stream, so the first k
// centroids of a seeding grown to Kmax are exactly the seeds a seeding
// stopped at k picks, and one seeding per restart serves every k of a
// Best call.
type seeding struct {
	rng   *rand.Rand
	cents [][]float64
	// dist and near hold, per distinct row, the squared distance to the
	// nearest centroid so far and that centroid's index. Each round
	// measures only the newest centroid, with Dist2Bounded pruning
	// against dist and the strict < update of a scan in index order, so
	// near is the assignment nearestCentroid makes over the centroids
	// so far: Lloyd's first assignment at the current k.
	dist []float64
	near []int
}

func newSeeding(rs *rowSet, seed int64) *seeding {
	sd := &seeding{
		rng:  rand.New(rand.NewSource(seed)),
		dist: make([]float64, len(rs.uniq)),
		near: make([]int, len(rs.uniq)),
	}
	for u := range sd.dist {
		sd.dist[u] = math.Inf(1)
	}
	return sd
}

// grow adds k-means++ centroids until there are k and returns the
// number of rounds run. The round total and the weighted draw walk
// every point in order, so every distance, total and random draw is
// what seeding from scratch for this k computes (TestSeedPlusPlusInvariant).
func (sd *seeding) grow(rs *rowSet, k int) int {
	points := rs.points
	n := len(points)
	rounds := 0
	for len(sd.cents) < k {
		idx := 0
		if len(sd.cents) == 0 {
			idx = sd.rng.Intn(n)
		} else {
			var total float64
			for _, u := range rs.of {
				total += sd.dist[u]
			}
			if total == 0 {
				// All remaining points coincide with existing centroids.
				idx = sd.rng.Intn(n)
			} else {
				target := sd.rng.Float64() * total
				for i, u := range rs.of {
					target -= sd.dist[u]
					if target <= 0 {
						idx = i
						break
					}
				}
			}
		}
		c := len(sd.cents)
		newest := append([]float64(nil), points[idx]...)
		sd.cents = append(sd.cents, newest)
		for u, i := range rs.uniq {
			if v := linalg.Dist2Bounded(points[i], newest, sd.dist[u]); v < sd.dist[u] {
				sd.dist[u], sd.near[u] = v, c
			}
		}
		rounds++
	}
	return rounds
}

// lloyd runs one k-means attempt on rs's rows from the first k
// centroids of sd, which must have exactly k, and returns the result
// with the number of iterations it jumped over.
//
// Everything after the assignment step (centroid sums, empty-cluster
// repair) is a pure function of the assignment vector that step
// produced, and the next assignment step reads only the centroids. So
// once that vector repeats the one from p iterations earlier, the run
// is periodic with period p and never converges: lloyd jumps over
// whole periods up to maxIters, runs the remainder, and reports
// maxIters unconverged iterations exactly as an unjumped run would.
// Repeats are found Brent-style with one snapshot, refreshed at
// iterations 0, 1, 3, 7, 15, ..., which catches a cycle of any period.
//
// The first assignment is the seeding's, each later one starts every
// row's scan from its previous centroid (nearestFrom), and an update
// recomputes only the clusters whose members changed while the
// centroids are still plain means (see docs/PERFORMANCE.md, "Exact
// k-means pruning").
func lloyd(rs *rowSet, sd *seeding, k, maxIters int) (*Result, int) {
	points := rs.points
	n := len(points)
	cents := make([][]float64, k)
	for c := range cents {
		cents[c] = append([]float64(nil), sd.cents[c]...)
	}
	copy(rs.near, sd.near)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)
	// means reports that every centroid is the mean of its cluster in
	// assign, that is, the last update repaired no empty cluster; only
	// then does moved record the clusters that gained or lost a point.
	means := false
	moved := make([]bool, k)

	iters, converged, skipped := maxIters, false, 0
	snapAt := -1
	for iter := 0; iter < maxIters; iter++ {
		if iter > 0 {
			for u, i := range rs.uniq {
				rs.near[u] = nearestFrom(points[i], cents, rs.near[u])
			}
		}
		changed := false
		for i, u := range rs.of {
			if bi := rs.near[u]; assign[i] != bi {
				if means {
					moved[assign[i]], moved[bi] = true, true
				}
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
		// Recompute centroids.
		clear(sizes)
		for _, c := range assign {
			sizes[c]++
		}
		empty := slices.Contains(sizes, 0)
		if means && !empty {
			// A cluster with the same members has the same sum in the
			// same order, so only the moved ones change.
			for c := range cents {
				if moved[c] {
					clear(cents[c])
				}
			}
			for i, p := range points {
				if c := assign[i]; moved[c] {
					linalg.AXPY(cents[c], 1, p)
				}
			}
			for c := range cents {
				if moved[c] {
					linalg.Scale(cents[c], 1/float64(sizes[c]))
				}
			}
		} else {
			means = !empty
			for c := range cents {
				clear(cents[c])
			}
			for i, p := range points {
				linalg.AXPY(cents[assign[i]], 1, p)
			}
			for c := range cents {
				if sizes[c] == 0 {
					// Empty cluster: re-seed at the point farthest from
					// its centroid. Two conditions here are part of the
					// result and pinned by the frozen reference: the
					// search measures clusters after c against their
					// still-unscaled sums, and the donor's centroid is
					// not adjusted for the point it gives up (a donor
					// after c is later scaled by its decremented size).
					far := rs.farthest(cents, assign, sizes)
					copy(cents[c], points[far])
					sizes[assign[far]]--
					assign[far] = c
					sizes[c] = 1
					continue
				}
				linalg.Scale(cents[c], 1/float64(sizes[c]))
			}
		}
		clear(moved)
	}

	// Final sizes and inertia. After a repair, duplicate rows can sit
	// in different clusters, so a point off its row's nearest cluster
	// is measured on its own.
	clear(sizes)
	for u, i := range rs.uniq {
		rs.dist[u] = linalg.Dist2(points[i], cents[rs.near[u]])
	}
	var inertia float64
	for i, u := range rs.of {
		c := assign[i]
		sizes[c]++
		if c == rs.near[u] {
			inertia += rs.dist[u]
		} else {
			inertia += linalg.Dist2(points[i], cents[c])
		}
	}
	return &Result{K: k, Assign: assign, Centroids: cents, Sizes: sizes, Inertia: inertia,
		Iters: iters, Converged: converged}, skipped
}

// farthest returns the point an empty-cluster repair moves: the first,
// in point order, at the greatest distance from its cluster's current
// centroid among clusters of more than one point, or point 0 when no
// point qualifies. Only points still in their row's nearest cluster can
// qualify: the assignment step puts every point there, and a point an
// earlier repair moved sits alone in the cluster it filled. So the
// distance is computed once per distinct row.
func (rs *rowSet) farthest(cents [][]float64, assign, sizes []int) int {
	for u, i := range rs.uniq {
		if c := rs.near[u]; sizes[c] > 1 {
			rs.dist[u] = linalg.Dist2(rs.points[i], cents[c])
		}
	}
	far, fd := 0, -1.0
	for i, u := range rs.of {
		if sizes[assign[i]] > 1 && rs.dist[u] > fd {
			far, fd = i, rs.dist[u]
		}
	}
	return far
}

// bic scores a clustering with the Pelleg-Moore spherical-Gaussian
// approximation; higher is better.
func bic(points [][]float64, r *Result) float64 {
	n := float64(len(points))
	d := float64(len(points[0]))
	k := float64(r.K)
	variance := r.Inertia / math.Max(n-k, 1)
	if variance < 1e-12 {
		variance = 1e-12
	}
	var ll float64
	for _, sz := range r.Sizes {
		if sz == 0 {
			continue
		}
		rn := float64(sz)
		ll += rn*math.Log(rn) -
			rn*math.Log(n) -
			rn*d/2*math.Log(2*math.Pi*variance) -
			(rn-1)*d/2
	}
	params := k * (d + 1)
	return ll - params/2*math.Log(n)
}

// Best clusters for every k in 1..kmax and applies SimPoint's
// selection rule: the smallest k whose BIC reaches
// min + BICFraction*(max-min) over the scored range.
func Best(points [][]float64, kmax int, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if kmax < 1 {
		return nil, fmt.Errorf("kmeans: kmax = %d < 1", kmax)
	}
	if err := validate(points); err != nil {
		return nil, err
	}
	if kmax > len(points) {
		kmax = len(points)
	}
	ds := newDataset(points, opts.SampleCap)
	results := make([]*Result, 0, kmax)
	minBIC, maxBIC := math.Inf(1), math.Inf(-1)
	for k := 1; k <= kmax; k++ {
		r := ds.cluster(k, opts)
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
	opts.Metrics.Counter("kmeans.seed_rounds").Add(int64(ds.rounds))
	return chosen, nil
}

// NearestToCentroid returns, for each cluster, the index of the point
// closest to its centroid (SimPoint's representative selection).
// Among members indistinguishably close to the centroid — common in
// synthetic traces where many intervals have identical signatures —
// the member at the median candidate position wins, so ties do not
// systematically elect the earliest (often transient-polluted)
// instance.
func NearestToCentroid(points [][]float64, r *Result) []int {
	best := make([]float64, r.K)
	for c := range best {
		best[c] = math.Inf(1)
	}
	for i, p := range points {
		c := r.Assign[i]
		if dd := linalg.Dist2(p, r.Centroids[c]); dd < best[c] {
			best[c] = dd
		}
	}
	// Collect near-ties and pick each cluster's median candidate.
	candidates := make([][]int, r.K)
	for i, p := range points {
		c := r.Assign[i]
		dd := linalg.Dist2(p, r.Centroids[c])
		if dd <= best[c]*(1+1e-9)+1e-18 {
			candidates[c] = append(candidates[c], i)
		}
	}
	reps := make([]int, r.K)
	for c := range reps {
		if len(candidates[c]) == 0 {
			reps[c] = -1
			continue
		}
		reps[c] = candidates[c][len(candidates[c])/2]
	}
	return reps
}

// EarliestInCluster returns, for each cluster, the smallest point
// index assigned to it (COASTS's earliest-instance representative
// selection; point order is execution order).
func EarliestInCluster(r *Result) []int {
	reps := make([]int, r.K)
	for c := range reps {
		reps[c] = -1
	}
	for i, c := range r.Assign {
		if reps[c] == -1 {
			reps[c] = i
		}
	}
	return reps
}
