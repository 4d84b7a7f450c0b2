package main

import (
	"fmt"
	"strings"

	"mlpa/internal/ckpt"
	"mlpa/internal/config"
	"mlpa/internal/experiments"
	"mlpa/internal/pipeline"
	"mlpa/internal/stats"
)

// runCkpt dispatches the portable-checkpoint subcommands:
//
//	mlpa ckpt save -dir d [-bench -method -size -seed]  build + persist a set
//	mlpa ckpt info -dir d                               verify + describe a set
//	mlpa ckpt exec -dir d [-config A,B -workers N]      estimate from a set
func runCkpt(f *flags, sub string) error {
	if sub == "" {
		return fmt.Errorf("usage: mlpa ckpt <save|exec|info> -dir <dir> [flags]")
	}
	if f.dir == "" {
		return fmt.Errorf("mlpa ckpt %s: -dir is required", sub)
	}
	switch sub {
	case "save":
		return runCkptSave(f)
	case "info":
		return runCkptInfo(f)
	case "exec":
		return runCkptExec(f)
	}
	return fmt.Errorf("unknown ckpt subcommand %q (want save, exec or info)", sub)
}

// execOptions adds this invocation's runtime knobs (workers, context,
// journal) to a warm policy.
func (f *flags) execOptions(policy pipeline.ExecOptions) pipeline.ExecOptions {
	policy.Workers, policy.Ctx, policy.Obs = f.workers, f.ctx, f.rt
	return policy
}

func runCkptSave(f *flags) error {
	o, err := f.options()
	if err != nil {
		return err
	}
	o.Benchmarks = []string{f.benchmark}
	st, err := experiments.NewStudy(o)
	if err != nil {
		return err
	}
	plan, err := st.Plans[0].ByMethod(f.method)
	if err != nil {
		return err
	}
	p, err := st.Plans[0].Spec.Program(o.Size)
	if err != nil {
		return err
	}
	// The harness's finite warm policy: each point's warm start then
	// sits inside the program, and restoring it replaces the functional
	// fast-forward that position would otherwise cost.
	set, err := pipeline.BuildCheckpointSet(p, plan, f.execOptions(experiments.CheckpointExec()))
	if err != nil {
		return err
	}
	if err := set.Save(f.dir); err != nil {
		return err
	}
	fmt.Printf("saved %d checkpoints for %s/%s to %s (%.1f KiB, program %s)\n",
		len(set.States), f.benchmark, f.method, f.dir,
		float64(set.ApproxBytes())/1024, set.ProgramHash[:12])
	return nil
}

func runCkptInfo(f *flags) error {
	set, err := ckpt.Load(f.dir)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint set %s\n", f.dir)
	fmt.Printf("  program   %s (%s, data %d B)\n", set.ProgramName, set.ProgramHash[:12], set.DataSize)
	fmt.Printf("  plan      %s/%s: %d points over %d insts\n",
		set.Plan.Benchmark, set.Plan.Method, len(set.Plan.Points), set.Plan.TotalInsts)
	fmt.Printf("  policy    warmup %d, lead-in %d\n", set.Policy.Warmup, set.Policy.DetailLeadIn)
	fmt.Printf("  size      %.1f KiB across %d states\n", float64(set.ApproxBytes())/1024, len(set.States))
	for _, s := range set.States {
		pt := set.Plan.Points[s.Index]
		fmt.Printf("  point %3d  insts %d, pc %d, live int %#x fp %#x mem %v, pages %d -> [%d,%d)\n",
			s.Index, s.Insts, s.PC, s.LiveIn.Int, s.LiveIn.FP, s.LiveIn.Mem, len(s.Pages), pt.Start, pt.End)
	}
	fmt.Println("  integrity verified")
	return nil
}

func runCkptExec(f *flags) error {
	set, err := ckpt.Load(f.dir)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d checkpoints for %s/%s (program %s)\n",
		len(set.States), set.Plan.Benchmark, set.Plan.Method, set.ProgramHash[:12])
	for _, cfgName := range strings.Split(f.configs, ",") {
		cfg, err := config.ByName(strings.TrimSpace(cfgName))
		if err != nil {
			return err
		}
		// Replay under the policy stored in the set's manifest, so a set
		// built by any producer executes consistently.
		opts := f.execOptions(pipeline.ExecOptions{Warmup: set.Policy.Warmup, DetailLeadIn: set.Policy.DetailLeadIn})
		opts.Checkpoints = set
		est, err := pipeline.ExecutePlan(set.Program, set.Plan, cfg, opts)
		if err != nil {
			return err
		}
		truth, _, err := pipeline.FullDetailed(set.Program, cfg)
		if err != nil {
			return err
		}
		cpiDev, l1Dev, l2Dev := pipeline.Deviations(est, truth)
		fmt.Printf("config %s: CPI est %.4f (true %.4f, %s off), L1 %s off, L2 %s off, wall %v\n",
			cfg.Name, est.CPI, truth.CPI(), stats.FormatPct(cpiDev),
			stats.FormatPct(l1Dev), stats.FormatPct(l2Dev), est.Wall().Round(1e6))
	}
	return nil
}
