// Package sampling defines the common vocabulary of representative
// sampling simulation: simulation points (selected execution regions
// with representativeness weights) and sampling plans (the full
// recipe a sampled simulation executes: fast-forward functionally
// between points, simulate points in cycle-accurate detail, combine
// point metrics by weight).
package sampling

import (
	"fmt"
	"math"
	"sort"
)

// Point is one selected simulation point.
type Point struct {
	Start  uint64  // first instruction of the region
	End    uint64  // exclusive
	Weight float64 // fraction of whole-program behaviour it represents

	// Level records which sampling level selected the point: 1 for
	// first-level (coarse or plain fine-grained) points, 2 for points
	// chosen by re-sampling inside a coarse point.
	Level int

	// Interval is the index of the source interval in its trace
	// (first-level) or within its parent coarse point (second-level).
	Interval int

	// Parent is the first-level interval index this point descends
	// from, or -1 for first-level points.
	Parent int
}

// Len returns the point length in instructions.
func (p Point) Len() uint64 { return p.End - p.Start }

// Plan is a complete sampling recipe for one benchmark.
type Plan struct {
	Benchmark  string
	Method     string
	Points     []Point // sorted by Start, non-overlapping
	TotalInsts uint64
}

// Sort orders points by start position.
func (pl *Plan) Sort() {
	sort.Slice(pl.Points, func(i, j int) bool { return pl.Points[i].Start < pl.Points[j].Start })
}

// Validate checks structural invariants: points sorted, in range,
// non-overlapping, weights positive and summing to ~1.
func (pl *Plan) Validate() error {
	if len(pl.Points) == 0 {
		return fmt.Errorf("sampling plan %s/%s: no points", pl.Benchmark, pl.Method)
	}
	var wsum float64
	var prevEnd uint64
	for i, p := range pl.Points {
		if p.End <= p.Start {
			return fmt.Errorf("sampling plan %s/%s: point %d empty [%d,%d)", pl.Benchmark, pl.Method, i, p.Start, p.End)
		}
		if p.End > pl.TotalInsts {
			return fmt.Errorf("sampling plan %s/%s: point %d exceeds program (%d > %d)", pl.Benchmark, pl.Method, i, p.End, pl.TotalInsts)
		}
		if p.Start < prevEnd {
			return fmt.Errorf("sampling plan %s/%s: point %d overlaps previous (start %d < %d)", pl.Benchmark, pl.Method, i, p.Start, prevEnd)
		}
		if p.Weight <= 0 {
			return fmt.Errorf("sampling plan %s/%s: point %d non-positive weight %v", pl.Benchmark, pl.Method, i, p.Weight)
		}
		prevEnd = p.End
	}
	for _, p := range pl.Points {
		wsum += p.Weight
	}
	if math.Abs(wsum-1) > 1e-6 {
		return fmt.Errorf("sampling plan %s/%s: weights sum to %v", pl.Benchmark, pl.Method, wsum)
	}
	return nil
}

// DetailedInsts returns the instructions simulated in cycle-accurate
// detail (the union of the points).
func (pl *Plan) DetailedInsts() uint64 {
	var n uint64
	for _, p := range pl.Points {
		n += p.Len()
	}
	return n
}

// FunctionalInsts returns the instructions that must be functionally
// fast-forwarded: everything before the end of the last point that is
// not inside a point. Execution after the last point is skipped
// entirely, which is where early simulation points win.
func (pl *Plan) FunctionalInsts() uint64 {
	if len(pl.Points) == 0 {
		return 0
	}
	last := pl.Points[len(pl.Points)-1].End
	return last - pl.DetailedInsts()
}

// LastPosition returns the paper's "position of the last simulation
// point": the instruction count before the last point's final
// instruction over the total.
func (pl *Plan) LastPosition() float64 {
	if len(pl.Points) == 0 || pl.TotalInsts == 0 {
		return 0
	}
	return float64(pl.Points[len(pl.Points)-1].End-1) / float64(pl.TotalInsts)
}

// DetailedFraction returns DetailedInsts / TotalInsts (Table III
// "Mean Detail").
func (pl *Plan) DetailedFraction() float64 {
	if pl.TotalInsts == 0 {
		return 0
	}
	return float64(pl.DetailedInsts()) / float64(pl.TotalInsts)
}

// FunctionalFraction returns FunctionalInsts / TotalInsts (Table III
// "Mean Functional").
func (pl *Plan) FunctionalFraction() float64 {
	if pl.TotalInsts == 0 {
		return 0
	}
	return float64(pl.FunctionalInsts()) / float64(pl.TotalInsts)
}

// MeanPointLen returns the average point length in instructions.
func (pl *Plan) MeanPointLen() float64 {
	if len(pl.Points) == 0 {
		return 0
	}
	return float64(pl.DetailedInsts()) / float64(len(pl.Points))
}

// NormalizeWeights rescales weights to sum to exactly 1.
func (pl *Plan) NormalizeWeights() {
	var sum float64
	for _, p := range pl.Points {
		sum += p.Weight
	}
	if sum == 0 {
		return
	}
	for i := range pl.Points {
		pl.Points[i].Weight /= sum
	}
}

// TimeModel converts a plan's instruction split into simulation time
// using per-mode simulation rates (instructions per second).
type TimeModel struct {
	Name           string
	DetailedRate   float64
	FunctionalRate float64
}

// SimpleScalarRates reflects the SimpleScalar 3.0 toolchain the paper
// evaluates on: sim-outorder detail at ~0.3M inst/s and sim-fastfwd
// functional execution at ~7M inst/s (ratio ~1:23). Speedup *ratios*
// between methods depend only on this ratio, not the absolute rates.
var SimpleScalarRates = TimeModel{Name: "simplescalar", DetailedRate: 0.3e6, FunctionalRate: 7e6}

// Time returns the modeled simulation time in seconds for a given
// instruction split.
func (tm TimeModel) Time(detailed, functional uint64) float64 {
	return float64(detailed)/tm.DetailedRate + float64(functional)/tm.FunctionalRate
}

// PlanTime returns the modeled time to execute a plan.
func (tm TimeModel) PlanTime(pl *Plan) float64 {
	return tm.Time(pl.DetailedInsts(), pl.FunctionalInsts())
}

// Speedup returns how much faster plan a is than plan b under the
// model (b time / a time).
func (tm TimeModel) Speedup(a, b *Plan) float64 {
	ta := tm.PlanTime(a)
	if ta == 0 {
		return math.Inf(1)
	}
	return tm.PlanTime(b) / ta
}
