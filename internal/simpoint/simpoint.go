// Package simpoint implements the fine-grained SimPoint baseline of
// Sherwood et al. (ASPLOS'02) as released in SimPoint 3.x and used by
// the paper as its comparison point: fixed-length intervals, 15-dim
// randomly projected and normalized BBVs, k-means with BIC model
// selection up to Kmax = 30, centroid-nearest representatives and
// cluster-share weights. The EarlySP variant of Perelman et al.
// (PACT'03), which biases representative choice toward early
// intervals, is included as an option.
package simpoint

import (
	"fmt"
	"math"

	"mlpa/internal/bbv"
	"mlpa/internal/kmeans"
	"mlpa/internal/linalg"
	"mlpa/internal/obs"
	"mlpa/internal/phase"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
)

// Config parameterizes the SimPoint pipeline.
type Config struct {
	// IntervalLen is the fixed interval length in instructions (the
	// paper compares against 10M-instruction SimPoint; express it in
	// the workload's own units).
	IntervalLen uint64

	// Kmax bounds the number of clusters (SimPoint default 30).
	Kmax int

	// Dims is the projected BBV dimensionality (default 15).
	Dims int

	// Seed drives the random projection and clustering determinism.
	Seed int64

	// BICFraction is the BIC selection threshold (default 0.9).
	BICFraction float64

	// EarlySP selects the earliest interval whose distance to the
	// centroid is within earlyTolerance x the minimum distance,
	// instead of the nearest interval.
	EarlySP bool

	// SampleCap bounds the number of intervals the clustering stage
	// examines directly (0 = all); long traces are stride-sampled and
	// the rest assigned to the nearest centroid, as SimPoint does.
	SampleCap int

	// Obs, if non-nil, receives stage spans, clustering metrics and a
	// per-selection journal record.
	Obs *obs.Runtime
}

func (c Config) withDefaults() Config {
	if c.Kmax <= 0 {
		c.Kmax = 30
	}
	if c.Dims <= 0 {
		c.Dims = bbv.DefaultDims
	}
	if c.BICFraction <= 0 {
		c.BICFraction = 0.9
	}
	return c
}

// MethodName is the plan label for standard SimPoint.
const MethodName = "simpoint"

// MethodNameEarly is the plan label for the EarlySP variant.
const MethodNameEarly = "earlysp"

// Profile collects the fixed-length interval trace SimPoint clusters.
func Profile(p *prog.Program, cfg Config) (*phase.Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.IntervalLen == 0 {
		return nil, fmt.Errorf("simpoint: IntervalLen = 0")
	}
	span := cfg.Obs.StartSpan("simpoint.profile",
		obs.KV("benchmark", p.Name), obs.KV("interval_len", cfg.IntervalLen))
	defer span.End()
	proj, err := bbv.NewProjector(p.NumBlocks(), cfg.Dims, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tr, err := phase.CollectFixed(p, proj, cfg.IntervalLen)
	if err == nil {
		span.SetAttr("intervals", len(tr.Intervals))
	}
	return tr, err
}

// SelectFromTrace clusters an existing fixed-length trace and returns
// the sampling plan plus the clustering (for inspection).
func SelectFromTrace(tr *phase.Trace, cfg Config) (*sampling.Plan, *kmeans.Result, error) {
	cfg = cfg.withDefaults()
	if len(tr.Intervals) == 0 {
		return nil, nil, fmt.Errorf("simpoint: empty trace for %s", tr.Benchmark)
	}
	span := cfg.Obs.StartSpan("simpoint.cluster",
		obs.KV("benchmark", tr.Benchmark), obs.KV("intervals", len(tr.Intervals)))
	defer span.End()
	km, err := kmeans.Best(tr.Vectors(), cfg.Kmax, kmeans.Options{
		Seed:        cfg.Seed,
		BICFraction: cfg.BICFraction,
		SampleCap:   cfg.SampleCap,
		Metrics:     cfg.Obs.Metrics(),
	})
	if err != nil {
		return nil, nil, err
	}
	span.SetAttr("k", km.K)
	span.SetAttr("cluster_sizes", append([]int(nil), km.Sizes...))

	var reps []int
	if cfg.EarlySP {
		reps = earlyReps(tr, km)
	} else {
		reps = kmeans.NearestToCentroid(tr.Vectors(), km)
	}

	method := MethodName
	if cfg.EarlySP {
		method = MethodNameEarly
	}
	plan, err := tr.Plan(method, km.Assign, reps)
	if err != nil {
		return nil, nil, err
	}
	cfg.Obs.Emit("selection", map[string]any{
		"benchmark": plan.Benchmark,
		"method":    method,
		"k":         km.K,
		"points":    len(plan.Points),
		"detailed":  plan.DetailedFraction(),
	})
	return plan, km, nil
}

// Select runs the full SimPoint pipeline on a program: profile,
// cluster, and choose simulation points.
func Select(p *prog.Program, cfg Config) (*sampling.Plan, *phase.Trace, *kmeans.Result, error) {
	tr, err := Profile(p, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, km, err := SelectFromTrace(tr, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return plan, tr, km, nil
}

// earlyTolerance is EarlySP's distance slack factor.
const earlyTolerance = 1.3

// earlyReps picks, per cluster, the earliest interval whose distance
// to the centroid is within earlyTolerance x the minimum distance in
// that cluster (the EarlySP criterion).
func earlyReps(tr *phase.Trace, km *kmeans.Result) []int {
	minDist := make([]float64, km.K)
	for c := range minDist {
		minDist[c] = math.Inf(1)
	}
	for i, iv := range tr.Intervals {
		c := km.Assign[i]
		if d := linalg.Dist(iv.Vector, km.Centroids[c]); d < minDist[c] {
			minDist[c] = d
		}
	}
	reps := make([]int, km.K)
	for c := range reps {
		reps[c] = -1
	}
	for i, iv := range tr.Intervals {
		c := km.Assign[i]
		if reps[c] >= 0 {
			continue // already found the earliest qualifying interval
		}
		if linalg.Dist(iv.Vector, km.Centroids[c]) <= minDist[c]*earlyTolerance+1e-15 {
			reps[c] = i
		}
	}
	return reps
}
