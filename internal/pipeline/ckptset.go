package pipeline

import (
	"context"
	"fmt"

	"mlpa/internal/ckpt"
	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/staticanalysis"
)

// ckptPolicy extracts the warm-policy fingerprint a checkpoint set is
// bound to from execution options. Only the fields that move the warm
// starts participate: workers, caches and observability never change
// what state a point needs.
func ckptPolicy(opts ExecOptions) ckpt.Policy {
	return ckpt.Policy{Warmup: opts.Warmup, DetailLeadIn: opts.DetailLeadIn}
}

// BuildCheckpointSet runs one functional pass over the program and
// captures a portable checkpoint set for (p, plan, opts' warm policy):
// per plan point, the live-in-scrubbed architectural state and touched
// memory footprint at the point's warm start — the position
// ExecutePlan's scheduler materializes machines at. The pass costs one
// fast-forward to the last warm start; every subsequent
// ExecutePlan with ExecOptions.Checkpoints then restores points in
// O(checkpoint size) instead of re-paying fast-forward, and the
// resulting estimates are bit-identical to from-scratch execution.
func BuildCheckpointSet(p *prog.Program, plan *sampling.Plan, opts ExecOptions) (*ckpt.Set, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := staticanalysis.Preflight(p); err != nil {
		return nil, fmt.Errorf("pipeline: preflight for %s/%s: %w", plan.Benchmark, plan.Method, err)
	}
	tasks, err := planTasks(plan, opts)
	if err != nil {
		return nil, err
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	span := opts.Obs.StartSpan("pipeline.build_ckpt_set",
		obs.KV("benchmark", plan.Benchmark), obs.KV("method", plan.Method))
	defer span.End()

	m := emu.New(p, 0)
	set := &ckpt.Set{
		ProgramName: p.Name,
		ProgramHash: ckpt.ProgramHash(p),
		Assembly:    p.Disassemble(),
		DataSize:    p.DataSize,
		Plan:        plan,
		Policy:      ckptPolicy(opts),
		Program:     p,
	}
	for pi := range plan.Points {
		// Warm starts are nondecreasing (planTasks guarantees each
		// point's warm window begins at or after the previous point's),
		// so one forward pass visits every capture position in order.
		ws := tasks[pi].warmStart
		if m.Insts > ws {
			return nil, fmt.Errorf("pipeline: checkpoint pass for %s/%s overshot point %d: machine at %d, warm start %d",
				plan.Benchmark, plan.Method, pi, m.Insts, ws)
		}
		if _, err := m.RunTo(ctx, ws); err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint pass for %s: %w", p.Name, err)
		}
		livein, err := boundaryLiveIn(m)
		if err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint pass live-in at point %d: %w", pi, err)
		}
		st, err := ckpt.Capture(m, pi, livein)
		if err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint pass capture at point %d: %w", pi, err)
		}
		set.States = append(set.States, st)
	}
	if rt := opts.Obs; rt != nil {
		rt.Metrics().Counter("pipeline.ckpt_states_built").Add(int64(len(set.States)))
		rt.Metrics().Gauge("pipeline.ckpt_set_bytes").Set(float64(set.ApproxBytes()))
	}
	return set, nil
}
