// Package multilevel implements the paper's main contribution: the
// two-level sampling framework of Section IV. The first level runs
// COASTS to pick a small number of early, coarse-grained simulation
// points. The second level re-samples every coarse point larger than a
// threshold (the paper uses fine-interval-length x fine-Kmax = 10M x
// 30 = 300M instructions) with the fine-grained SimPoint method
// *inside* the coarse point, composing the weights multiplicatively.
// Because the fine points represent only the selected coarse points —
// not the entire program — both the functional and the detailed
// portions of the sampled simulation shrink.
package multilevel

import (
	"fmt"

	"mlpa/internal/bbv"
	"mlpa/internal/coasts"
	"mlpa/internal/obs"
	"mlpa/internal/phase"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
)

// Config parameterizes the framework.
type Config struct {
	// Coarse is the first-level COASTS configuration.
	Coarse coasts.Config

	// Fine is the second-level SimPoint configuration applied inside
	// oversized coarse points. Fine.IntervalLen must be set.
	Fine simpoint.Config

	// Threshold is the coarse-point size above which re-sampling
	// applies. Zero defaults to Fine.IntervalLen x Fine.Kmax, the
	// paper's rule.
	Threshold uint64

	// Obs, if non-nil, receives stage spans and journal records; it
	// propagates to the coarse and fine sub-configurations unless they
	// carry their own.
	Obs *obs.Runtime
}

func (c Config) withDefaults() Config {
	if c.Fine.Kmax <= 0 {
		c.Fine.Kmax = 30
	}
	if c.Fine.Dims <= 0 {
		c.Fine.Dims = bbv.DefaultDims
	}
	if c.Threshold == 0 {
		c.Threshold = c.Fine.IntervalLen * uint64(c.Fine.Kmax)
	}
	if c.Obs != nil {
		if c.Coarse.Obs == nil {
			c.Coarse.Obs = c.Obs
		}
		if c.Fine.Obs == nil {
			c.Fine.Obs = c.Obs
		}
	}
	return c
}

// MethodName is the plan label for multi-level sampling.
const MethodName = "multilevel"

// Report captures the intermediate artifacts of a multi-level
// selection for inspection and experiments.
type Report struct {
	CoarsePlan *sampling.Plan
	// Resampled[i] is the fine-grained sub-plan for coarse point i, or
	// nil when the point was below the threshold and kept whole.
	Resampled []*sampling.Plan
	Threshold uint64
}

// Select runs the complete two-level pipeline on a program.
func Select(p *prog.Program, cfg Config) (*sampling.Plan, *Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Fine.IntervalLen == 0 {
		return nil, nil, fmt.Errorf("multilevel: Fine.IntervalLen = 0")
	}

	coarsePlan, _, _, err := coasts.Select(p, cfg.Coarse)
	if err != nil {
		return nil, nil, fmt.Errorf("multilevel: first level: %w", err)
	}
	return Resample(p, coarsePlan, cfg)
}

// Resample applies the second level to an existing coarse plan.
func Resample(p *prog.Program, coarsePlan *sampling.Plan, cfg Config) (*sampling.Plan, *Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Fine.IntervalLen == 0 {
		return nil, nil, fmt.Errorf("multilevel: Fine.IntervalLen = 0")
	}
	span := cfg.Obs.StartSpan("multilevel.resample",
		obs.KV("benchmark", coarsePlan.Benchmark),
		obs.KV("coarse_points", len(coarsePlan.Points)),
		obs.KV("threshold", cfg.Threshold))
	defer span.End()
	report := &Report{
		CoarsePlan: coarsePlan,
		Resampled:  make([]*sampling.Plan, len(coarsePlan.Points)),
		Threshold:  cfg.Threshold,
	}

	proj, err := bbv.NewProjector(p.NumBlocks(), cfg.Fine.Dims, cfg.Fine.Seed)
	if err != nil {
		return nil, nil, err
	}

	out := &sampling.Plan{
		Benchmark:  coarsePlan.Benchmark,
		Method:     MethodName,
		TotalInsts: coarsePlan.TotalInsts,
	}

	for ci, cp := range coarsePlan.Points {
		if cp.Len() <= cfg.Threshold {
			kept := cp
			kept.Parent = -1
			out.Points = append(out.Points, kept)
			continue
		}
		// Second-level profiling inside the coarse point.
		tr, err := phase.CollectFixedRange(p, proj, cfg.Fine.IntervalLen, cp.Start, cp.End)
		if err != nil {
			return nil, nil, fmt.Errorf("multilevel: re-sampling coarse point %d: %w", ci, err)
		}
		sub, _, err := simpoint.SelectFromTrace(tr, cfg.Fine)
		if err != nil {
			return nil, nil, fmt.Errorf("multilevel: re-sampling coarse point %d: %w", ci, err)
		}
		report.Resampled[ci] = sub
		for _, fp := range sub.Points {
			out.Points = append(out.Points, sampling.Point{
				Start: fp.Start,
				End:   fp.End,
				// The fine point represents fp.Weight of the coarse
				// point, which itself represents cp.Weight of the
				// program.
				Weight:   cp.Weight * fp.Weight,
				Level:    2,
				Interval: fp.Interval,
				Parent:   cp.Interval,
			})
		}
	}

	out.Sort()
	out.NormalizeWeights()
	if err := out.Validate(); err != nil {
		return nil, nil, err
	}
	resampled := 0
	for _, sub := range report.Resampled {
		if sub != nil {
			resampled++
		}
	}
	span.SetAttr("resampled", resampled)
	span.SetAttr("points", len(out.Points))
	cfg.Obs.Emit("selection", map[string]any{
		"benchmark": out.Benchmark,
		"method":    MethodName,
		"points":    len(out.Points),
		"resampled": resampled,
		"detailed":  out.DetailedFraction(),
	})
	return out, report, nil
}
