// Package coasts implements COASTS — COarse-grained Accurately
// Sampling Technique for Simulators — the paper's first-level sampling
// (Section IV-A). Intervals are iteration instances of an outer cyclic
// program structure discovered by dynamic boundary profiling;
// structures covering less than 1% of execution are discarded. One BBV
// is collected per iteration instance, randomly projected to 15
// dimensions and normalized into its signature vector; k-means with Kmax = 3 classifies the coarse phases and the
// *earliest* instance of each phase becomes its simulation point,
// which is what collapses the functional fast-forward time.
package coasts

import (
	"fmt"

	"mlpa/internal/bbv"
	"mlpa/internal/emu"
	"mlpa/internal/kmeans"
	"mlpa/internal/obs"
	"mlpa/internal/phase"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/staticanalysis"
)

// Config parameterizes COASTS.
type Config struct {
	// Kmax bounds coarse-grained phase count (paper default 3).
	Kmax int

	// Seed drives projection and clustering determinism.
	Seed int64

	// Obs, if non-nil, receives stage spans, clustering metrics and a
	// per-selection journal record.
	Obs *obs.Runtime
}

func (c Config) withDefaults() Config {
	if c.Kmax <= 0 {
		c.Kmax = 3
	}
	return c
}

const (
	// minCoverage discards cyclic structures below this execution share
	// during boundary collection (the paper's 1%).
	minCoverage = 0.01
	// bicFraction is the model-selection threshold, SimPoint's 0.9.
	bicFraction = 0.9
)

// MethodName is the plan label for COASTS.
const MethodName = "coasts"

// Boundary is the result of the boundary-collection profiling pass.
type Boundary struct {
	// Head is the selected cyclic structure's head PC, or -1 when the
	// program has no significant cyclic structure.
	Head int64
	// Structure is the selected structure's dynamic profile (nil when
	// Head is -1).
	Structure *emu.LoopStats
	// All lists every significant structure, by decreasing coverage.
	All []*emu.LoopStats
	// TotalInsts is the profiled execution length.
	TotalInsts uint64

	// Static cross-validation of the dynamic profile (see
	// docs/STATIC_ANALYSIS.md). StaticLoops counts the natural loops in
	// the program's static forest; Agreements holds one record per
	// significant dynamic structure; StaticAgree reports whether the
	// selected head is a static loop head at a nesting depth no deeper
	// than the dynamically observed one (vacuously true with no
	// selection).
	StaticLoops int
	Agreements  []staticanalysis.Agreement
	StaticAgree bool
}

// CollectBoundaries runs the boundary-collection pass: a functional
// execution with the dynamic loop profiler attached, followed by
// coverage filtering, coarse-structure selection, and a static
// cross-check of the dynamic loop structure.
func CollectBoundaries(p *prog.Program, cfg Config) (*Boundary, error) {
	cfg = cfg.withDefaults()
	span := cfg.Obs.StartSpan("coasts.boundaries", obs.KV("benchmark", p.Name))
	defer span.End()
	if err := staticanalysis.Preflight(p); err != nil {
		return nil, fmt.Errorf("coasts: preflight for %s: %w", p.Name, err)
	}
	m := emu.New(p, 0)
	m.Metrics = cfg.Obs.Metrics()
	lp := emu.NewLoopProfiler(m)
	m.Branch = lp.OnBranch
	if _, err := m.RunToCompletion(1 << 40); err != nil {
		return nil, fmt.Errorf("coasts: boundary collection for %s: %w", p.Name, err)
	}
	lp.Finish()
	b := &Boundary{Head: -1, TotalInsts: m.Insts}
	b.All = lp.Significant(m.Insts, minCoverage)
	if sel := lp.SelectCoarse(m.Insts, minCoverage); sel != nil {
		b.Head = sel.Head
		b.Structure = sel
	}
	crossValidate(p, b, lp.Structures(), cfg)
	span.SetAttr("total_insts", b.TotalInsts)
	span.SetAttr("structures", len(b.All))
	span.SetAttr("head", b.Head)
	span.SetAttr("static_agree", b.StaticAgree)
	return b, nil
}

// crossValidate compares the dynamic structures against the static
// natural-loop forest and journals the verdict. A disagreement — a
// dynamic head the static analysis does not recognize as a loop, or
// dynamic nesting deeper than the static forest allows — means the
// boundary pass is slicing intervals on a structure the program's
// control flow cannot explain, which is worth surfacing long before
// any deviation shows up in the sampled metrics.
func crossValidate(p *prog.Program, b *Boundary, all []*emu.LoopStats, cfg Config) {
	forest := staticanalysis.Analyze(p).Loops
	b.StaticLoops = len(forest.Loops)
	heads := make([]int64, len(all))
	depths := make([]int, len(all))
	for i, s := range all {
		heads[i] = s.Head
		depths[i] = s.Depth
	}
	b.Agreements = forest.CheckDynamic(heads, depths)
	// A dynamic structure can legitimately sit shallower than its
	// static depth (a 1-trip enclosing loop is invisible dynamically),
	// so agreement means: known static head, depth not exceeding the
	// static one.
	disagreements := 0
	for _, ag := range b.Agreements {
		if !ag.InStatic || ag.DynamicDepth > ag.StaticDepth {
			disagreements++
		}
	}
	b.StaticAgree = true
	if b.Head >= 0 {
		l, ok := forest.ByHead(b.Head)
		b.StaticAgree = ok && b.Structure.Depth <= l.Depth
	}
	cfg.Obs.Emit("static_check", map[string]any{
		"benchmark":     p.Name,
		"head":          b.Head,
		"static_loops":  b.StaticLoops,
		"dynamic_heads": len(heads),
		"disagreements": disagreements,
		"agree":         b.StaticAgree,
	})
}

// Profile runs the metric-collection pass: one interval per iteration
// instance of the selected structure. When no structure qualifies the
// whole program becomes a single interval.
func Profile(p *prog.Program, b *Boundary, cfg Config) (*phase.Trace, error) {
	cfg = cfg.withDefaults()
	span := cfg.Obs.StartSpan("coasts.profile", obs.KV("benchmark", p.Name))
	defer span.End()
	proj, err := bbv.NewProjector(p.NumBlocks(), bbv.DefaultDims, cfg.Seed)
	if err != nil {
		return nil, err
	}
	head := b.Head
	if head < 0 {
		// No cyclic structure: CollectIterations with an unreachable
		// head yields a single whole-program interval.
		head = int64(len(p.Code))
	}
	tr, err := phase.CollectIterations(p, proj, head)
	if err == nil {
		span.SetAttr("intervals", len(tr.Intervals))
	}
	return tr, err
}

// SelectFromTrace clusters an iteration trace and picks the earliest
// instance of each coarse phase.
func SelectFromTrace(tr *phase.Trace, cfg Config) (*sampling.Plan, *kmeans.Result, error) {
	cfg = cfg.withDefaults()
	if len(tr.Intervals) == 0 {
		return nil, nil, fmt.Errorf("coasts: empty trace for %s", tr.Benchmark)
	}
	span := cfg.Obs.StartSpan("coasts.cluster",
		obs.KV("benchmark", tr.Benchmark), obs.KV("intervals", len(tr.Intervals)))
	defer span.End()
	km, err := kmeans.Best(tr.Vectors(), cfg.Kmax, kmeans.Options{
		Seed:        cfg.Seed,
		BICFraction: bicFraction,
		Metrics:     cfg.Obs.Metrics(),
	})
	if err != nil {
		return nil, nil, err
	}
	span.SetAttr("k", km.K)
	span.SetAttr("cluster_sizes", append([]int(nil), km.Sizes...))
	reps := kmeans.EarliestInCluster(km)

	plan, err := tr.Plan(MethodName, km.Assign, reps)
	if err != nil {
		return nil, nil, err
	}
	cfg.Obs.Emit("selection", map[string]any{
		"benchmark": plan.Benchmark,
		"method":    MethodName,
		"k":         km.K,
		"points":    len(plan.Points),
		"detailed":  plan.DetailedFraction(),
	})
	return plan, km, nil
}

// Select runs the complete COASTS pipeline: boundary collection,
// metric collection, coarse clustering and point selection.
func Select(p *prog.Program, cfg Config) (*sampling.Plan, *phase.Trace, *kmeans.Result, error) {
	b, err := CollectBoundaries(p, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := Profile(p, b, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, km, err := SelectFromTrace(tr, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return plan, tr, km, nil
}
