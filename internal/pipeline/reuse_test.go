package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
)

// reuseConfigs are the configurations the reuse tests alternate: Table
// I's A and B, and A with only its memory latency changed, as a
// sensitivity sweep varies it. The variant keeps A's name and cache
// geometry, so handing it a context of A's would show in its results.
func reuseConfigs() []cpu.Config {
	slow := config.BaseA()
	slow.Caches.MemFirst, slow.Caches.MemNext = 300, 20
	return []cpu.Config{config.BaseA(), config.SensitivityB(), slow}
}

// reuseRun is one call the reuse tests make: a plan under a warm policy
// (nil plan: FullDetailed), and what fresh contexts give for it.
type reuseRun struct {
	name  string
	cfg   cpu.Config
	plan  *sampling.Plan
	opts  ExecOptions
	est   *Estimate
	truth cpu.Result
}

// reuseRuns returns, for every configuration of reuseConfigs, the
// program's ground truth and its plan under the harness policy (a spine
// that forks at every point), the finite checkpoint policy (a spine
// restart at most points) and that policy restoring from a checkpoint
// set, each with its result on new contexts: cpu.New for ground truth,
// referenceExecute for plans.
func reuseRuns(t *testing.T, p *prog.Program, plan *sampling.Plan, workers int) []reuseRun {
	t.Helper()
	finite := ckptExecOpts(workers)
	set, err := BuildCheckpointSet(p, plan, finite)
	if err != nil {
		t.Fatal(err)
	}
	backed := finite
	backed.Checkpoints = set
	var runs []reuseRun
	for i, cfg := range reuseConfigs() {
		sim, err := cpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := sim.Run(emu.New(p, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, reuseRun{name: fmt.Sprintf("config %d truth", i), cfg: cfg, truth: truth})
		for _, pol := range []struct {
			name string
			opts ExecOptions
		}{{"harness", harnessExecOpts(workers)}, {"finite", finite}, {"checkpointed", backed}} {
			want, err := referenceExecute(p, plan, cfg, pol.opts)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, reuseRun{name: fmt.Sprintf("config %d %s", i, pol.name), cfg: cfg, plan: plan, opts: pol.opts, est: want})
		}
	}
	return runs
}

// check makes the run's call on whatever contexts the store hands out
// and reports any difference from fresh contexts' results.
func (r reuseRun) check(t *testing.T, p *prog.Program, step string) {
	if r.plan == nil {
		got, _, err := FullDetailed(p, r.cfg)
		if err != nil {
			t.Errorf("%s, %s: %v", step, r.name, err)
		} else if got != r.truth {
			t.Errorf("%s, %s: ground truth %+v, fresh context %+v", step, r.name, got, r.truth)
		}
		return
	}
	got, err := ExecutePlan(p, r.plan, r.cfg, r.opts)
	if err != nil {
		t.Errorf("%s, %s: %v", step, r.name, err)
	} else if !reflect.DeepEqual(stripWall(got), r.est) {
		t.Errorf("%s, %s: estimate differs from fresh contexts':\n got %s\nwant %s%s",
			step, r.name, dumpEstimate(stripWall(got)), dumpEstimate(r.est), firstRecordDiff(stripWall(got), r.est))
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// n-th call on, which stops a one-worker ExecutePlan at a fixed place.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestReusedContextsMatchFresh: ground truth and plan executions made
// back to back in one process, alternating configurations A, B and a
// memory-only variant of A, give estimates and point records
// bit-identical to runs on new contexts — twice over, then after a call
// cancelled midway through its points, and then after calls whose
// detailed window failed on a jump out of the program. The contexts
// those calls leave half-run go back to the store and are reused.
func TestReusedContextsMatchFresh(t *testing.T) {
	p := bench.Suite()[0].MustProgram(bench.SizeTiny)
	runs := reuseRuns(t, p, suitePlan(t, p), 1)
	checkAll := func(step string) {
		t.Helper()
		for _, r := range runs {
			r.check(t, p, step)
		}
	}
	checkAll("first pass")
	checkAll("second pass")

	a := config.BaseA()
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(4)
	opts := harnessExecOpts(1)
	opts.Ctx, opts.Obs = ctx, obs.New(nil)
	if _, err := ExecutePlan(p, runs[1].plan, a, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: err %v, want context.Canceled", err)
	}
	if opts.Obs.Metrics().Counter("cpu.fork.calls").Value() == 0 {
		t.Fatal("the cancelled call stopped before its spine forked; cancel it later")
	}
	checkAll("after a cancelled call")

	// The program of cpu's TestRunWildJumpErrors jumps to PC 999. The
	// verifier refuses it, so its window fails on a context taken from
	// the store directly; a verifier-clean return to PC 901 fails inside
	// ground truth and a plan execution.
	wild, err := prog.Assemble("wild", `
    addi r1, r0, 999
    ld   r5, 4096(r0)
    jr   r1
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cpu.Acquire(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(emu.New(wild, 0), 0); err == nil {
		t.Fatal("a window through a jump to PC 999 ran without error")
	}
	cpu.Release(sim)
	ret, err := prog.Assemble("wildret", `
    jal  r31, fn
    halt
fn:
    addi r31, r31, 900
    jr   r31
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FullDetailed(ret, a); err == nil || !strings.Contains(err.Error(), "full detailed run") {
		t.Fatalf("ground truth through a return to PC 901: err %v, want a failed detailed run", err)
	}
	point := &sampling.Plan{Benchmark: "wildret", Method: "handmade", TotalInsts: 8,
		Points: []sampling.Point{{Start: 0, End: 5, Weight: 1}}}
	if _, err := ExecutePlan(ret, point, a, ExecOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "detailed point 0") {
		t.Fatalf("a plan through a return to PC 901: err %v, want a failed detailed point", err)
	}
	checkAll("after failing windows")
}

// TestReusedContextsConcurrent: executions and ground truth running at
// once on every configuration, each call's chunks on several workers,
// share the store and still give fresh contexts' results. Run with
// -race.
func TestReusedContextsConcurrent(t *testing.T) {
	p := phasedProgram(t, 12)
	runs := reuseRuns(t, p, suitePlan(t, p), 2)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range runs {
				// Each goroutine walks the runs from its own offset, so
				// configurations and policies overlap differently.
				runs[(k+g*len(runs)/3)%len(runs)].check(t, p, fmt.Sprintf("goroutine %d", g))
			}
		}(g)
	}
	wg.Wait()
}

// TestExecutePlanReusesContexts: once a configuration has run, a
// one-worker plan execution builds no detailed context, spine or fork:
// it reuses the store's idle spine and the fork that spine keeps.
func TestExecutePlanReusesContexts(t *testing.T) {
	p := bench.Suite()[0].MustProgram(bench.SizeTiny)
	plan := suitePlan(t, p)
	cfg := config.BaseA()
	cfg.Name = "reuse-count"
	for call := 0; call < 3; call++ {
		opts := harnessExecOpts(1)
		opts.Obs = obs.New(nil)
		if _, err := ExecutePlan(p, plan, cfg, opts); err != nil {
			t.Fatal(err)
		}
		reg := opts.Obs.Metrics()
		built, reused := reg.Counter("cpu.contexts.built").Value(), reg.Counter("cpu.contexts.reused").Value()
		if reg.Counter("cpu.fork.calls").Value() == 0 {
			t.Fatal("the plan never forks its spine; the count needs a fork")
		}
		if call > 0 && (built != 0 || reused != 1) {
			t.Errorf("call %d: built %d contexts, reused %d; want 0 and 1", call, built, reused)
		}
	}
}
