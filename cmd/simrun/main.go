// Command simrun is the sim-outorder stand-in: it runs one suite
// benchmark (or an assembly file) under the functional emulator or the
// detailed out-of-order model and prints execution statistics.
//
//	simrun -bench gzip -size small -mode detailed -config A
//	simrun -file prog.s -mode functional
//	simrun -bench swim -mode warm          # cache/branch stats only (sim-cache)
//	simrun -bench gcc -mode detailed -max 1000000
//	simrun -bench gzip -metrics - -cpuprofile cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		benchName  = flag.String("bench", "", "suite benchmark to run")
		file       = flag.String("file", "", "assembly file to run instead of a suite benchmark")
		size       = flag.String("size", "small", "suite scale: tiny, small or ref")
		mode       = flag.String("mode", "detailed", "functional, detailed, or warm (cache/branch stats without timing)")
		cfgName    = flag.String("config", "A", "machine configuration (A or B) for detailed mode")
		maxInsts   = flag.Uint64("max", 0, "instruction budget (0 = run to completion)")
		metricsOut = flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file (- for stderr)")
		serveAddr  = flag.String("serve", "", "serve live telemetry (/metrics, /progress, /debug/pprof/) on this address")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		cf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			cf.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err != nil {
				return
			}
			mf, merr := os.Create(*memprofile)
			if merr != nil {
				err = merr
				return
			}
			defer mf.Close()
			runtime.GC()
			err = pprof.WriteHeapProfile(mf)
		}()
	}
	var reg *obs.Registry
	var rt *obs.Runtime
	if *metricsOut != "" || *serveAddr != "" {
		rt = obs.New(nil)
		reg = rt.Metrics()
	}
	if *serveAddr != "" {
		srv, serr := obs.Serve(*serveAddr, rt)
		if serr != nil {
			return serr
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "simrun: serving live telemetry on http://%s/ (/metrics, /debug/pprof/)\n", srv.Addr())
	}
	if *metricsOut != "" {
		defer func() {
			if err != nil {
				return
			}
			w := os.Stderr
			if *metricsOut != "-" {
				f, ferr := os.Create(*metricsOut)
				if ferr != nil {
					err = ferr
					return
				}
				defer f.Close()
				w = f
			}
			err = reg.WriteJSON(w)
		}()
	}

	p, err := loadProgram(*benchName, *file, *size)
	if err != nil {
		return err
	}
	m := emu.New(p, 0)
	m.Metrics = reg

	switch *mode {
	case "functional":
		t0 := time.Now()
		budget := *maxInsts
		if budget == 0 {
			budget = 1 << 40
		}
		n, err := m.RunToCompletion(budget)
		if err != nil {
			return err
		}
		dur := time.Since(t0)
		fmt.Printf("program:      %s\n", p.Name)
		fmt.Printf("instructions: %d\n", n)
		fmt.Printf("wall time:    %v (%.1f M inst/s)\n", dur.Round(time.Millisecond), float64(n)/dur.Seconds()/1e6)
		return nil
	case "detailed":
		cfg, err := config.ByName(*cfgName)
		if err != nil {
			return err
		}
		sim, err := cpu.New(cfg)
		if err != nil {
			return err
		}
		sim.Metrics = reg
		t0 := time.Now()
		res, err := sim.Run(m, *maxInsts)
		if err != nil {
			return err
		}
		dur := time.Since(t0)
		printDetailed(p.Name, cfg, res, dur)
		return nil
	case "warm":
		// Functional execution driving caches and predictor only —
		// the sim-cache / sim-bpred equivalent.
		cfg, err := config.ByName(*cfgName)
		if err != nil {
			return err
		}
		sim, err := cpu.New(cfg)
		if err != nil {
			return err
		}
		sim.Metrics = reg
		budget := *maxInsts
		if budget == 0 {
			budget = 1 << 40
		}
		t0 := time.Now()
		res, err := sim.WarmMeasured(m, budget)
		if err != nil {
			return err
		}
		dur := time.Since(t0)
		fmt.Printf("program:        %s (config %s, warm mode: no timing)\n", p.Name, cfg.Name)
		fmt.Printf("instructions:   %d\n", res.Insts)
		fmt.Printf("IL1:            %d accesses, %.4f hit rate\n", res.IL1.Accesses, res.IL1.HitRate())
		fmt.Printf("DL1:            %d accesses, %.4f hit rate\n", res.DL1.Accesses, res.DL1.HitRate())
		fmt.Printf("UL2:            %d accesses, %.4f hit rate\n", res.L2.Accesses, res.L2.HitRate())
		fmt.Printf("branches:       %d lookups, %.4f accuracy\n", res.Branch.Lookups, res.Branch.Accuracy())
		fmt.Printf("wall time:      %v (%.2f M inst/s)\n", dur.Round(time.Millisecond), float64(res.Insts)/dur.Seconds()/1e6)
		return nil
	}
	return fmt.Errorf("unknown mode %q", *mode)
}

func loadProgram(benchName, file, size string) (*prog.Program, error) {
	switch {
	case benchName != "" && file != "":
		return nil, fmt.Errorf("use either -bench or -file, not both")
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return prog.Assemble(file, string(src))
	case benchName != "":
		spec, err := bench.ByName(benchName)
		if err != nil {
			return nil, err
		}
		sz, err := bench.ParseSize(size)
		if err != nil {
			return nil, err
		}
		return spec.Program(sz)
	}
	return nil, fmt.Errorf("need -bench or -file (suite: %v)", bench.Names())
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
