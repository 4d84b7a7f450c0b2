package experiments

import (
	"fmt"

	"mlpa/internal/bench"
	"mlpa/internal/coasts"
	"mlpa/internal/config"
	"mlpa/internal/multilevel"
	"mlpa/internal/pipeline"
	"mlpa/internal/simpoint"
	"mlpa/internal/smarts"
	"mlpa/internal/vli"
)

// Ablation studies for the design choices DESIGN.md calls out: the
// phase-granularity tradeoff of Section III, COASTS's Kmax, the
// multi-level re-sampling threshold, the BBV projection dimension, and
// the cold-start-vs-warming execution policy.

// GranularityRow is one interval length in the granularity sweep.
type GranularityRow struct {
	IntervalLen   uint64
	Points        int
	DetailPct     float64
	FunctionalPct float64
	LastPosition  float64
	ModeledTime   float64 // seconds under the study's time model
}

// GranularitySweep reproduces the Section III tradeoff on one
// benchmark: finer intervals shrink each simulation point but push the
// last selected point later, inflating the functional portion; coarser
// intervals do the opposite. Lengths are multiples of the preset's
// fine interval.
func GranularitySweep(o Options, benchmark string, multipliers []float64) ([]GranularityRow, error) {
	o = o.withDefaults()
	p, err := bench.Program(benchmark, o.Size)
	if err != nil {
		return nil, err
	}
	base := bench.FineInterval(o.Size)
	var out []GranularityRow
	for _, mult := range multipliers {
		cfg := o.fineConfig()
		cfg.IntervalLen = uint64(float64(base) * mult)
		if cfg.IntervalLen == 0 {
			return nil, fmt.Errorf("experiments: zero interval from multiplier %v", mult)
		}
		plan, _, _, err := simpoint.Select(p, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, GranularityRow{
			IntervalLen:   cfg.IntervalLen,
			Points:        len(plan.Points),
			DetailPct:     plan.DetailedFraction(),
			FunctionalPct: plan.FunctionalFraction(),
			LastPosition:  plan.LastPosition(),
			ModeledTime:   o.TimeModel.PlanTime(plan),
		})
	}
	return out, nil
}

// KmaxRow is one Kmax setting in the coarse-Kmax sweep.
type KmaxRow struct {
	Kmax          int
	Points        int
	DetailPct     float64
	FunctionalPct float64
	LastPosition  float64
	ModeledTime   float64
}

// CoarseKmaxSweep varies COASTS's cluster budget around the paper's
// default of 3.
func CoarseKmaxSweep(o Options, benchmark string, kmaxes []int) ([]KmaxRow, error) {
	o = o.withDefaults()
	p, err := bench.Program(benchmark, o.Size)
	if err != nil {
		return nil, err
	}
	var out []KmaxRow
	for _, k := range kmaxes {
		cfg := o.coarseConfig()
		cfg.Kmax = k
		plan, _, _, err := coasts.Select(p, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, KmaxRow{
			Kmax:          k,
			Points:        len(plan.Points),
			DetailPct:     plan.DetailedFraction(),
			FunctionalPct: plan.FunctionalFraction(),
			LastPosition:  plan.LastPosition(),
			ModeledTime:   o.TimeModel.PlanTime(plan),
		})
	}
	return out, nil
}

// ThresholdRow is one re-sampling threshold in the threshold sweep.
type ThresholdRow struct {
	Threshold     uint64
	Points        int
	Resampled     int // coarse points that were re-sampled
	DetailPct     float64
	FunctionalPct float64
	ModeledTime   float64
}

// ThresholdSweep varies the multi-level re-sampling threshold around
// the paper's rule (fine interval x fine Kmax). Multipliers scale that
// default.
func ThresholdSweep(o Options, benchmark string, multipliers []float64) ([]ThresholdRow, error) {
	o = o.withDefaults()
	p, err := bench.Program(benchmark, o.Size)
	if err != nil {
		return nil, err
	}
	co, _, _, err := coasts.Select(p, o.coarseConfig())
	if err != nil {
		return nil, err
	}
	fine := o.fineConfig()
	baseThreshold := fine.IntervalLen * uint64(fine.Kmax)
	var out []ThresholdRow
	for _, mult := range multipliers {
		cfg := multilevel.Config{
			Fine:      fine,
			Threshold: uint64(float64(baseThreshold) * mult),
			Obs:       o.Obs,
		}
		plan, rep, err := multilevel.Resample(p, co, cfg)
		if err != nil {
			return nil, err
		}
		resampled := 0
		for _, sub := range rep.Resampled {
			if sub != nil {
				resampled++
			}
		}
		out = append(out, ThresholdRow{
			Threshold:     cfg.Threshold,
			Points:        len(plan.Points),
			Resampled:     resampled,
			DetailPct:     plan.DetailedFraction(),
			FunctionalPct: plan.FunctionalFraction(),
			ModeledTime:   o.TimeModel.PlanTime(plan),
		})
	}
	return out, nil
}

// DimRow is one projection dimensionality in the dimension sweep.
type DimRow struct {
	Dims   int
	Points int
	CPIDev float64
}

// ProjectionDimSweep varies the random-projection dimensionality
// (paper and SimPoint default: 15) and measures the resulting SimPoint
// CPI deviation on one benchmark under configuration A.
func ProjectionDimSweep(o Options, benchmark string, dims []int) ([]DimRow, error) {
	o = o.withDefaults()
	p, err := bench.Program(benchmark, o.Size)
	if err != nil {
		return nil, err
	}
	truth, _, err := pipeline.FullDetailed(p, config.BaseA())
	if err != nil {
		return nil, err
	}
	var out []DimRow
	for _, d := range dims {
		cfg := o.fineConfig()
		cfg.Dims = d
		plan, _, _, err := simpoint.Select(p, cfg)
		if err != nil {
			return nil, err
		}
		est, err := pipeline.ExecutePlan(p, plan, config.BaseA(), o.ablationExecOpts())
		if err != nil {
			return nil, err
		}
		dev, _, _ := pipeline.Deviations(est, truth)
		out = append(out, DimRow{Dims: d, Points: len(plan.Points), CPIDev: dev})
	}
	return out, nil
}

// ColdStartRow contrasts execution policies for one method.
type ColdStartRow struct {
	Method  string
	ColdDev float64 // CPI deviation with plain fast-forward (paper methodology)
	WarmDev float64 // CPI deviation with the scaled-execution policy
}

// ColdStartAblation quantifies the scale substitution DESIGN.md
// documents: at reduced scale, plain fast-forwarded (cold) points carry
// transients that the warming policy removes.
func ColdStartAblation(o Options, benchmark string) ([]ColdStartRow, error) {
	o = o.withDefaults()
	p, err := bench.Program(benchmark, o.Size)
	if err != nil {
		return nil, err
	}
	truth, _, err := pipeline.FullDetailed(p, config.BaseA())
	if err != nil {
		return nil, err
	}
	inner := o
	inner.Benchmarks = []string{benchmark}
	st, err := NewStudy(inner)
	if err != nil {
		return nil, err
	}
	var out []ColdStartRow
	for _, method := range Methods() {
		plan, err := st.Plans[0].ByMethod(method)
		if err != nil {
			return nil, err
		}
		coldOpts := o.ablationExecOpts()
		coldOpts.Warmup, coldOpts.DetailLeadIn = 0, 0
		cold, err := pipeline.ExecutePlan(p, plan, config.BaseA(), coldOpts)
		if err != nil {
			return nil, err
		}
		warm, err := pipeline.ExecutePlan(p, plan, config.BaseA(), o.ablationExecOpts())
		if err != nil {
			return nil, err
		}
		coldDev, _, _ := pipeline.Deviations(cold, truth)
		warmDev, _, _ := pipeline.Deviations(warm, truth)
		out = append(out, ColdStartRow{Method: method, ColdDev: coldDev, WarmDev: warmDev})
	}
	return out, nil
}

// VLIRow compares the variable-length-interval variant against fixed
// SimPoint on one benchmark.
type VLIRow struct {
	Benchmark     string
	VLIPoints     int
	FixedPoints   int
	VLITime       float64
	FixedTime     float64
	TimeRatio     float64 // VLI time / fixed time (paper: ~1, no gain)
	VLIIntervals  int
	MeanVLILength float64
}

// VLIComparison reproduces the paper's Section V observation that
// variable-length intervals "make the phase boundaries more natural
// but do not gain performance improvement" over fixed-length SimPoint.
func VLIComparison(o Options, benchmarks []string) ([]VLIRow, error) {
	o = o.withDefaults()
	var out []VLIRow
	for _, name := range benchmarks {
		p, err := bench.Program(name, o.Size)
		if err != nil {
			return nil, err
		}
		fixedPlan, _, _, err := simpoint.Select(p, o.fineConfig())
		if err != nil {
			return nil, err
		}
		vliPlan, vliTrace, _, err := vli.Select(p, vli.Config{
			TargetLen:   bench.FineInterval(o.Size),
			Kmax:        fineKmax,
			Seed:        o.Seed,
			BICFraction: fineBICFraction,
			SampleCap:   fineSampleCap,
		})
		if err != nil {
			return nil, err
		}
		vt := o.TimeModel.PlanTime(vliPlan)
		ft := o.TimeModel.PlanTime(fixedPlan)
		var meanLen float64
		if len(vliTrace.Intervals) > 0 {
			meanLen = float64(vliTrace.TotalInsts) / float64(len(vliTrace.Intervals))
		}
		out = append(out, VLIRow{
			Benchmark:     name,
			VLIPoints:     len(vliPlan.Points),
			FixedPoints:   len(fixedPlan.Points),
			VLITime:       vt,
			FixedTime:     ft,
			TimeRatio:     vt / ft,
			VLIIntervals:  len(vliTrace.Intervals),
			MeanVLILength: meanLen,
		})
	}
	return out, nil
}

// EarlySPRow compares the EarlySP variant (Perelman et al., PACT'03)
// against standard SimPoint and COASTS on one benchmark.
type EarlySPRow struct {
	Benchmark           string
	StandardFunctional  float64
	EarlySPFunctional   float64
	CoastsFunctional    float64
	EarlySPSpeedup      float64 // over standard SimPoint
	CoastsSpeedup       float64 // over standard SimPoint
	EarlySPLastPosition float64
}

// EarlySPComparison reproduces the paper's related-work observation
// about early simulation points: constraining the last cluster's
// position "can only reduce some functional simulation time" — it
// helps, but far less than coarse-grained earliest-instance selection.
func EarlySPComparison(o Options, benchmarks []string) ([]EarlySPRow, error) {
	o = o.withDefaults()
	var out []EarlySPRow
	for _, name := range benchmarks {
		p, err := bench.Program(name, o.Size)
		if err != nil {
			return nil, err
		}
		std, _, _, err := simpoint.Select(p, o.fineConfig())
		if err != nil {
			return nil, err
		}
		earlyCfg := o.fineConfig()
		earlyCfg.EarlySP = true
		early, _, _, err := simpoint.Select(p, earlyCfg)
		if err != nil {
			return nil, err
		}
		co, _, _, err := coasts.Select(p, o.coarseConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, EarlySPRow{
			Benchmark:           name,
			StandardFunctional:  std.FunctionalFraction(),
			EarlySPFunctional:   early.FunctionalFraction(),
			CoastsFunctional:    co.FunctionalFraction(),
			EarlySPSpeedup:      o.TimeModel.Speedup(early, std),
			CoastsSpeedup:       o.TimeModel.Speedup(co, std),
			EarlySPLastPosition: early.LastPosition(),
		})
	}
	return out, nil
}

// StatSamplingRow compares systematic statistical sampling (SMARTS
// style) against the representative methods on one benchmark.
type StatSamplingRow struct {
	Benchmark     string
	Units         int
	CPIDev        float64
	FunctionalPct float64
	ModeledTime   float64
	CoastsTime    float64
	SimPointTime  float64
}

// StatisticalSamplingComparison contrasts the two sampling families:
// systematic sampling achieves good accuracy with no phase analysis,
// but its functional portion spans the whole run — the cost structure
// the paper's coarse-grained level eliminates.
func StatisticalSamplingComparison(o Options, benchmarks []string) ([]StatSamplingRow, error) {
	o = o.withDefaults()
	var out []StatSamplingRow
	for _, name := range benchmarks {
		p, err := bench.Program(name, o.Size)
		if err != nil {
			return nil, err
		}
		fine := bench.FineInterval(o.Size)
		smPlan, err := smarts.Select(p, smarts.Config{UnitLen: fine / 2, Period: fine * 25})
		if err != nil {
			return nil, err
		}
		truth, _, err := pipeline.FullDetailed(p, config.BaseA())
		if err != nil {
			return nil, err
		}
		est, err := pipeline.ExecutePlan(p, smPlan, config.BaseA(), o.ablationExecOpts())
		if err != nil {
			return nil, err
		}
		dev, _, _ := pipeline.Deviations(est, truth)

		co, _, _, err := coasts.Select(p, o.coarseConfig())
		if err != nil {
			return nil, err
		}
		sp, _, _, err := simpoint.Select(p, o.fineConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, StatSamplingRow{
			Benchmark:     name,
			Units:         len(smPlan.Points),
			CPIDev:        dev,
			FunctionalPct: smPlan.FunctionalFraction(),
			ModeledTime:   o.TimeModel.PlanTime(smPlan),
			CoastsTime:    o.TimeModel.PlanTime(co),
			SimPointTime:  o.TimeModel.PlanTime(sp),
		})
	}
	return out, nil
}
