package kmeans

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// blobs generates n points around each of the given centers with the
// given spread.
func blobs(seed int64, centers [][]float64, n int, spread float64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var out [][]float64
	for _, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(c))
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*spread
			}
			out = append(out, p)
		}
	}
	return out
}

func TestClusterSeparatesBlobs(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	pts := blobs(1, centers, 30, 0.5)
	r, err := Cluster(pts, 3, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 3 {
		t.Fatalf("K = %d", r.K)
	}
	// All points of one blob must share a cluster.
	for b := 0; b < 3; b++ {
		want := r.Assign[b*30]
		for i := 1; i < 30; i++ {
			if r.Assign[b*30+i] != want {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
	}
	// Centroids near the true centers (in some order).
	for _, c := range centers {
		found := false
		for _, got := range r.Centroids {
			if math.Abs(got[0]-c[0]) < 1 && math.Abs(got[1]-c[1]) < 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("no centroid near %v: %v", c, r.Centroids)
		}
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, 2, Options{}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Cluster([][]float64{{1}}, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Cluster([][]float64{{1}, {1, 2}}, 1, Options{}); err == nil {
		t.Error("ragged data accepted")
	}
}

func TestClusterKLargerThanN(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	r, err := Cluster(pts, 10, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 3 {
		t.Errorf("K = %d, want clamped to 3", r.K)
	}
}

func TestDeterminism(t *testing.T) {
	pts := blobs(2, [][]float64{{0, 0}, {5, 5}}, 50, 1)
	r1, _ := Cluster(pts, 2, Options{Seed: 9})
	r2, _ := Cluster(pts, 2, Options{Seed: 9})
	if r1.Inertia != r2.Inertia {
		t.Fatalf("inertia differs: %v vs %v", r1.Inertia, r2.Inertia)
	}
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatal("assignments differ between identical runs")
		}
	}
}

func TestSizesAndInertiaConsistent(t *testing.T) {
	pts := blobs(3, [][]float64{{0, 0}, {8, 0}}, 40, 1)
	r, err := Cluster(pts, 2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range r.Sizes {
		total += s
	}
	if total != len(pts) {
		t.Errorf("sizes sum to %d, want %d", total, len(pts))
	}
	if r.Inertia < 0 {
		t.Errorf("negative inertia %v", r.Inertia)
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	pts := blobs(4, [][]float64{{0, 0}, {6, 6}, {-6, 6}, {6, -6}}, 25, 1)
	var prev float64 = math.Inf(1)
	for k := 1; k <= 6; k++ {
		r, err := Cluster(pts, k, Options{Seed: 11, Restarts: 5})
		if err != nil {
			t.Fatal(err)
		}
		// Allow tiny non-monotonicity from local optima.
		if r.Inertia > prev*1.05 {
			t.Errorf("inertia rose sharply at k=%d: %v -> %v", k, prev, r.Inertia)
		}
		prev = r.Inertia
	}
}

func TestBestPicksTrueK(t *testing.T) {
	pts := blobs(5, [][]float64{{0, 0}, {20, 0}, {0, 20}}, 40, 0.8)
	r, err := Best(pts, 8, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 3 {
		t.Errorf("Best chose k = %d, want 3", r.K)
	}
}

func TestBestSingleCluster(t *testing.T) {
	// One tight blob: BIC should not over-split badly.
	pts := blobs(6, [][]float64{{0, 0}}, 80, 0.5)
	r, err := Best(pts, 5, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if r.K > 2 {
		t.Errorf("Best chose k = %d for one blob, want <= 2", r.K)
	}
}

func TestBestErrors(t *testing.T) {
	if _, err := Best([][]float64{{1}}, 0, Options{}); err == nil {
		t.Error("kmax=0 accepted")
	}
	if _, err := Best(nil, 3, Options{}); err == nil || !strings.Contains(err.Error(), "no points") {
		t.Errorf("empty data: err = %v, want kmeans: no points", err)
	}
	if _, err := Best([][]float64{{1}, {1, 2}}, 2, Options{}); err == nil {
		t.Error("ragged data accepted")
	}
}

func TestNearestToCentroid(t *testing.T) {
	pts := [][]float64{{0}, {0.1}, {10}, {10.2}, {9.9}}
	r, err := Cluster(pts, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reps := NearestToCentroid(pts, r)
	if len(reps) != 2 {
		t.Fatalf("reps = %v", reps)
	}
	for c, rep := range reps {
		if rep < 0 {
			t.Fatalf("cluster %d has no representative", c)
		}
		if r.Assign[rep] != c {
			t.Errorf("rep %d not in its cluster %d", rep, c)
		}
	}
	// The representative of the {10,10.2,9.9} cluster is 10 or 9.9
	// (closest to mean 10.03): index 2 or 4.
	bigCluster := r.Assign[2]
	rep := reps[bigCluster]
	if rep != 2 && rep != 4 {
		t.Errorf("big-cluster representative = %d", rep)
	}
}

func TestEarliestInCluster(t *testing.T) {
	r := &Result{K: 2, Assign: []int{1, 1, 0, 1, 0}}
	reps := EarliestInCluster(r)
	if reps[0] != 2 || reps[1] != 0 {
		t.Errorf("reps = %v, want [2 0]", reps)
	}
}

func TestEarliestInClusterEmptyCluster(t *testing.T) {
	r := &Result{K: 3, Assign: []int{0, 0, 1}}
	reps := EarliestInCluster(r)
	if reps[2] != -1 {
		t.Errorf("empty cluster rep = %d, want -1", reps[2])
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	r, err := Cluster(pts, 2, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Inertia != 0 {
		t.Errorf("identical points inertia = %v", r.Inertia)
	}
	b, err := Best(pts, 3, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.K != 1 {
		t.Errorf("Best on identical points chose k = %d", b.K)
	}
}

// Property: every point is assigned to its nearest centroid after
// convergence (Lloyd fixed-point invariant).
func TestAssignmentOptimality(t *testing.T) {
	f := func(seed int64) bool {
		pts := blobs(seed, [][]float64{{0, 0}, {7, 7}}, 20, 1.5)
		r, err := Cluster(pts, 2, Options{Seed: seed})
		if err != nil {
			return false
		}
		for i, p := range pts {
			mine := dist2(p, r.Centroids[r.Assign[i]])
			for c := range r.Centroids {
				if dist2(p, r.Centroids[c]) < mine-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Property: BIC is finite for any well-formed clustering.
func TestBICFinite(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%5) + 1
		pts := blobs(seed, [][]float64{{0}, {3}}, 15, 0.7)
		r, err := Cluster(pts, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		return !math.IsNaN(r.BIC) && !math.IsInf(r.BIC, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
