// Package smarts implements systematic statistical sampling in the
// style of SMARTS (Wunderlich et al., ISCA'03) as a comparison family
// for the paper's representative sampling: instead of clustering
// program behaviour and picking representatives, it measures every
// k-th interval of a small fixed size and estimates metrics as the
// mean, relying on the central limit theorem rather than phase
// structure. Its plans fast-forward through the whole program (like
// fine-grained SimPoint's worst case), which is exactly the cost
// profile the paper's coarse-grained first level removes.
package smarts

import (
	"fmt"
	"math"

	"mlpa/internal/emu"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
)

// Config parameterizes systematic sampling.
type Config struct {
	// UnitLen is the detailed measurement unit length in instructions
	// (SMARTS uses ~1000).
	UnitLen uint64
	// Period is the sampling period: one unit is measured every
	// Period instructions, the first at instruction 0.
	Period uint64
}

func (c Config) validate() error {
	if c.UnitLen == 0 {
		return fmt.Errorf("smarts: UnitLen = 0")
	}
	if c.Period < c.UnitLen {
		return fmt.Errorf("smarts: period %d below unit length %d", c.Period, c.UnitLen)
	}
	return nil
}

// MethodName is the plan label.
const MethodName = "smarts"

// Select builds the systematic sampling plan for p: units of UnitLen
// every Period instructions, each weighted equally. No profiling or
// clustering pass is needed — the defining property of statistical
// sampling.
func Select(p *prog.Program, cfg Config) (*sampling.Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// One functional pass to learn the program length.
	m := emu.New(p, 0)
	total, err := m.RunToCompletion(1 << 40)
	if err != nil {
		return nil, fmt.Errorf("smarts: measuring %s: %w", p.Name, err)
	}

	plan := &sampling.Plan{
		Benchmark:  p.Name,
		Method:     MethodName,
		TotalInsts: total,
	}
	for start := uint64(0); start+cfg.UnitLen <= total; start += cfg.Period {
		plan.Points = append(plan.Points, sampling.Point{
			Start:  start,
			End:    start + cfg.UnitLen,
			Weight: 1, // normalized below: equal weights
			Level:  1,
			Parent: -1,
		})
	}
	if len(plan.Points) == 0 {
		// Program shorter than one unit: measure it whole.
		plan.Points = append(plan.Points, sampling.Point{
			Start: 0, End: total, Weight: 1, Level: 1, Parent: -1,
		})
	}
	plan.NormalizeWeights()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// SampleSize returns the number of units Select places for a
// (UnitLen, Period) design on a program of the given length: one at
// each multiple of Period whose unit ends by the program's end, or the
// whole program as one unit when it is shorter than a unit. An invalid
// design yields 0.
func SampleSize(totalInsts uint64, cfg Config) int {
	if cfg.validate() != nil {
		return 0
	}
	if totalInsts < cfg.UnitLen {
		return 1
	}
	return int((totalInsts-cfg.UnitLen)/cfg.Period) + 1
}

// ConfidenceHalfWidth returns the half-width of the (approximate)
// normal-theory confidence interval for a mean estimated from n unit
// measurements with the given sample standard deviation, at z standard
// errors (z = 1.96 for ~95%).
func ConfidenceHalfWidth(stddev float64, n int, z float64) float64 {
	if n <= 1 {
		return math.Inf(1)
	}
	return z * stddev / math.Sqrt(float64(n))
}
