package main

import (
	"fmt"
	"time"

	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/obs"
)

// runSim implements `mlpa sim`, the sim-outorder stand-in: it runs one
// program under the functional emulator (-mode functional), the
// detailed out-of-order model (detailed), or functional execution
// driving only the caches and branch predictor (warm, the sim-cache /
// sim-bpred equivalent), and prints execution statistics. -max bounds
// the instructions every mode runs (0 = to completion); detailed and
// warm print one block per -config entry, each from a fresh machine.
func runSim(f *flags) error {
	p, err := loadProgram(f)
	if err != nil {
		return err
	}
	reg := f.rt.Metrics()
	switch f.mode {
	case "functional":
		m := emu.New(p, 0)
		m.Metrics = reg
		span := f.rt.StartSpan("sim.functional", obs.KV("benchmark", p.Name))
		t0 := time.Now()
		var n uint64
		if f.maxInsts == 0 {
			n, err = m.RunToCompletion(1 << 40)
		} else {
			n, err = m.Run(f.maxInsts)
		}
		dur := time.Since(t0)
		span.End()
		if err != nil {
			return err
		}
		fmt.Printf("program:      %s\n", p.Name)
		fmt.Printf("instructions: %d\n", n)
		fmt.Printf("wall time:    %v (%.1f M inst/s)\n", dur.Round(time.Millisecond), float64(n)/dur.Seconds()/1e6)
		return nil
	case "detailed", "warm":
	default:
		return fmt.Errorf("unknown mode %q", f.mode)
	}
	configs, err := f.cpuConfigs()
	if err != nil {
		return err
	}
	for i, cfg := range configs {
		if i > 0 {
			fmt.Println()
		}
		sim, err := cpu.New(cfg)
		if err != nil {
			return err
		}
		sim.Metrics = reg
		m := emu.New(p, 0)
		m.Metrics = reg
		span := f.rt.StartSpan("sim."+f.mode, obs.KV("benchmark", p.Name), obs.KV("config", cfg.Name))
		t0 := time.Now()
		var res cpu.Result
		if f.mode == "detailed" {
			res, err = sim.Run(m, f.maxInsts)
		} else {
			budget := f.maxInsts
			if budget == 0 {
				budget = 1 << 40
			}
			res, err = sim.WarmMeasured(m, budget)
		}
		dur := time.Since(t0)
		span.End()
		if err != nil {
			return err
		}
		if f.mode == "detailed" {
			printDetailed(p.Name, cfg, res, dur)
		} else {
			printWarm(p.Name, cfg, res, dur)
		}
	}
	return nil
}

func printDetailed(name string, cfg cpu.Config, res cpu.Result, dur time.Duration) {
	fmt.Printf("program:        %s (config %s)\n", name, cfg.Name)
	fmt.Printf("instructions:   %d\n", res.Insts)
	fmt.Printf("cycles:         %d\n", res.Cycles)
	fmt.Printf("CPI:            %.4f  (IPC %.3f)\n", res.CPI(), res.IPC())
	fmt.Printf("IL1:            %d accesses, %.4f hit rate\n", res.IL1.Accesses, res.IL1.HitRate())
	fmt.Printf("DL1:            %d accesses, %.4f hit rate\n", res.DL1.Accesses, res.DL1.HitRate())
	fmt.Printf("L1 (combined):  %.4f hit rate\n", res.L1HitRate())
	fmt.Printf("UL2:            %d accesses, %.4f hit rate\n", res.L2.Accesses, res.L2HitRate())
	fmt.Printf("branches:       %d lookups, %.4f accuracy (%d dir, %d target misses)\n",
		res.Branch.Lookups, res.Branch.Accuracy(), res.Branch.DirMisses, res.Branch.TargetMisses)
	fmt.Printf("wall time:      %v (%.2f M inst/s)\n", dur.Round(time.Millisecond), float64(res.Insts)/dur.Seconds()/1e6)
}

func printWarm(name string, cfg cpu.Config, res cpu.Result, dur time.Duration) {
	fmt.Printf("program:        %s (config %s, warm mode: no timing)\n", name, cfg.Name)
	fmt.Printf("instructions:   %d\n", res.Insts)
	fmt.Printf("IL1:            %d accesses, %.4f hit rate\n", res.IL1.Accesses, res.IL1.HitRate())
	fmt.Printf("DL1:            %d accesses, %.4f hit rate\n", res.DL1.Accesses, res.DL1.HitRate())
	fmt.Printf("UL2:            %d accesses, %.4f hit rate\n", res.L2.Accesses, res.L2.HitRate())
	fmt.Printf("branches:       %d lookups, %.4f accuracy\n", res.Branch.Lookups, res.Branch.Accuracy())
	fmt.Printf("wall time:      %v (%.2f M inst/s)\n", dur.Round(time.Millisecond), float64(res.Insts)/dur.Seconds()/1e6)
}
