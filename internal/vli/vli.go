// Package vli implements a variable-length-interval fine-grained
// sampling method in the spirit of the Software Phase Marker work (Lau
// et al., CGO'06) that the paper compares against: instead of fixed
// instruction counts, interval boundaries align with iterations of an
// inner cyclic program structure, grouped to approximately a target
// length. The paper's Section V observation — variable-length
// intervals make phase boundaries more natural but do not reduce the
// dominant functional simulation time — is reproduced by the
// corresponding ablation.
package vli

import (
	"fmt"

	"mlpa/internal/bbv"
	"mlpa/internal/emu"
	"mlpa/internal/kmeans"
	"mlpa/internal/phase"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
)

// Config parameterizes VLI sampling.
type Config struct {
	// TargetLen is the approximate interval length in instructions;
	// intervals end at the first structure boundary at or beyond it.
	TargetLen uint64
	// Kmax bounds the cluster count (default 30, as for SimPoint).
	Kmax int
	// Seed drives projection and clustering.
	Seed int64
	// BICFraction is the model-selection threshold (default 0.9).
	BICFraction float64
	// SampleCap bounds clustering input (0 = all intervals).
	SampleCap int
}

// minCoverage is the execution share below which a cyclic structure is
// not a candidate boundary source (the paper's 1%, as for COASTS).
const minCoverage = 0.01

// MethodName is the plan label.
const MethodName = "vli"

// ChooseStructures picks the boundary-providing cyclic structures:
// every significant structure whose mean iteration is at most half the
// target length, so several boundaries fall within each target-sized
// interval in every phase of the program (SPM marks loops and
// procedures throughout the code, not a single site). Returns nil when
// none qualifies (callers fall back to fixed intervals).
func ChooseStructures(p *prog.Program, cfg Config) ([]int64, error) {
	m := emu.New(p, 0)
	lp := emu.NewLoopProfiler(m)
	m.Branch = lp.OnBranch
	if _, err := m.RunToCompletion(1 << 40); err != nil {
		return nil, fmt.Errorf("vli: boundary collection for %s: %w", p.Name, err)
	}
	lp.Finish()
	var heads []int64
	for _, s := range lp.Significant(m.Insts, minCoverage) {
		if s.MeanIter() > float64(cfg.TargetLen)/2 {
			continue
		}
		heads = append(heads, s.Head)
	}
	return heads, nil
}

// Profile collects variable-length intervals: each interval ends at
// the first back-edge of any marked structure after TargetLen
// instructions have accumulated. An empty head set degrades to
// fixed-length intervals.
func Profile(p *prog.Program, heads []int64, cfg Config) (*phase.Trace, error) {
	if cfg.TargetLen == 0 {
		return nil, fmt.Errorf("vli: TargetLen = 0")
	}
	proj, err := bbv.NewProjector(p.NumBlocks(), bbv.DefaultDims, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if len(heads) == 0 {
		return phase.CollectFixed(p, proj, cfg.TargetLen)
	}

	headSet := make(map[int64]bool, len(heads))
	for _, h := range heads {
		headSet[h] = true
	}
	var start uint64
	tr, err := phase.CollectCuts(p, proj, phase.Kind("vli"), func(from, to int64, insts uint64) bool {
		if to > from || !headSet[to] || insts-start < cfg.TargetLen {
			return false
		}
		start = insts
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("vli: %w", err)
	}
	return tr, nil
}

// Select runs the complete VLI pipeline: structure choice, profiling,
// clustering, representative selection. Weighting and representative
// choice match SimPoint (nearest centroid, instruction-share weights);
// only the interval boundaries differ, which is precisely the variable
// the paper's comparison isolates.
func Select(p *prog.Program, cfg Config) (*sampling.Plan, *phase.Trace, *kmeans.Result, error) {
	heads, err := ChooseStructures(p, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := Profile(p, heads, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	spCfg := simpoint.Config{
		Kmax:        cfg.Kmax,
		Seed:        cfg.Seed,
		BICFraction: cfg.BICFraction,
		SampleCap:   cfg.SampleCap,
		IntervalLen: cfg.TargetLen,
	}
	plan, km, err := simpoint.SelectFromTrace(tr, spCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	plan.Method = MethodName
	return plan, tr, km, nil
}
