// Observability wiring for the mlpa command: run journal, metrics
// snapshot, verbose logging and Go runtime profiling. All of it is
// opt-in per flag and costs nothing when disabled — the obs.Runtime is
// nil-safe, so command code threads it through unconditionally.
package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mlpa/internal/obs"
)

// configHash fingerprints every flag that changes a command's results,
// so two journals are comparable iff their hashes match. A flag the
// command ignores is hashed too, which only makes the match stricter.
func configHash(f *flags) string {
	return obs.ConfigHash(map[string]any{
		"size": f.size, "seed": f.seed, "benchmarks": f.benchmarks, "bench": f.benchmark,
		"configs": f.configs, "rates": f.rates, "method": f.method,
		"mode": f.mode, "max": f.maxInsts, "granularity": f.granularity, "pca": f.pca,
	})
}

// manifestBenchmark names the program or programs cmd runs: for
// analyze, sim and bbv the positional assembly file's program, else
// -bench for the commands that run one program, else -benchmarks.
func manifestBenchmark(f *flags, cmd, ckptSub string) string {
	switch cmd {
	case "analyze", "sim", "bbv":
		if len(f.args) > 0 {
			return programName(f.args[0])
		}
		return f.benchmark
	case "fig1", "points", "ablation":
		return f.benchmark
	case "ckpt":
		if ckptSub == "save" {
			return f.benchmark
		}
	}
	return f.benchmarks
}

// setupObs builds the observability runtime the flags describe, stores
// it on f, and returns a teardown function that flushes everything
// (metrics snapshot, heap profile, journal file) when the command
// finishes. benchmark is the manifest's program name.
func setupObs(f *flags, cmd, benchmark string) (func() error, error) {
	var journalFile *os.File
	var sink *obs.JSONLSink
	if f.journal != "" {
		jf, err := os.Create(f.journal)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		journalFile = jf
		sink = obs.NewJSONLSink(jf)
	}
	if sink != nil {
		f.rt = obs.New(sink)
	} else {
		f.rt = obs.New(nil)
	}
	if f.verbose {
		f.rt.SetLogger(os.Stderr)
	}
	f.rt.EmitManifest(obs.Manifest{
		Tool:       "mlpa",
		Command:    cmd,
		Benchmark:  benchmark,
		Method:     f.method,
		Size:       f.size,
		Seed:       f.seed,
		Configs:    strings.Split(f.configs, ","),
		ConfigHash: configHash(f),
		Args:       os.Args[1:],
	})

	// Live telemetry: -serve exposes /metrics, /progress and the pprof
	// mux. The server only reads atomic registry/progress snapshots, so
	// estimates and journals are bit-identical with and without it.
	var srv *obs.Server
	if f.serveAddr != "" {
		var err error
		if srv, err = obs.Serve(f.serveAddr, f.rt); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "mlpa: serving live telemetry on http://%s/ (/metrics, /progress, /debug/pprof/)\n", srv.Addr())
	}

	// -sample streams periodic metrics_sample records so a journal (or
	// stderr) shows the run's trajectory, not just its final state.
	var sampler *obs.Sampler
	if f.sample > 0 {
		var ssink obs.Sink = obs.NewJSONLSink(os.Stderr)
		if sink != nil {
			ssink = sink
		}
		sampler = obs.StartSampler(f.rt.Metrics(), ssink, obs.SamplerOptions{Interval: f.sample})
	}

	var cpuFile *os.File
	if f.cpuprofile != "" {
		cf, err := os.Create(f.cpuprofile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = cf
	}

	return func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		// The sampler emits a final sample on Stop, and must settle
		// before the journal's closing metrics record and file close.
		sampler.Stop()
		if srv != nil {
			keep(srv.Close())
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			keep(cpuFile.Close())
		}
		if f.memprofile != "" {
			mf, err := os.Create(f.memprofile)
			if err != nil {
				keep(fmt.Errorf("memprofile: %w", err))
			} else {
				runtime.GC() // settle allocations so the heap profile is current
				keep(pprof.WriteHeapProfile(mf))
				keep(mf.Close())
			}
		}
		if f.metrics == "-" {
			keep(f.rt.Metrics().WriteJSON(os.Stderr))
		} else if f.metrics != "" {
			mf, err := os.Create(f.metrics)
			if err != nil {
				keep(fmt.Errorf("metrics: %w", err))
			} else {
				keep(f.rt.Metrics().WriteJSON(mf))
				keep(mf.Close())
			}
		}
		if sink != nil {
			// Close the journal with a final metrics record so every
			// journal carries the run's counters.
			f.rt.EmitMetrics()
			keep(sink.Err())
			keep(journalFile.Close())
		}
		return firstErr
	}, nil
}
