package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/obs"
	"mlpa/internal/simpoint"
)

// stripWall zeroes the wall-clock fields, the only part of an Estimate
// the determinism contract excludes (docs/PARALLELISM.md).
func stripWall(est *Estimate) *Estimate {
	c := *est
	c.WallDetailed, c.WallFunctional = 0, 0
	c.PointRecords = make([]PointRecord, len(est.PointRecords))
	for i, r := range est.PointRecords {
		r.WallFunctional, r.WallDetailed = 0, 0
		c.PointRecords[i] = r
	}
	return &c
}

// journalSkeleton extracts the non-wall payload of every point and
// estimate event, in stream order.
func journalSkeleton(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	recs, err := obs.ReadJournal(buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	for _, rec := range recs {
		ev, _ := rec["ev"].(string)
		if ev != "point" && ev != "estimate" {
			continue
		}
		m := make(map[string]any, len(rec))
		for k, v := range rec {
			switch k {
			case "wall_functional_ns", "wall_detailed_ns", "ts", "dur_ns":
				continue
			}
			m[k] = v
		}
		out = append(out, m)
	}
	return out
}

// TestExecutePlanDeterministicAcrossWorkers is the golden determinism
// test: for every suite benchmark under both Table I configurations,
// ExecutePlan with 1, 2, 4 and 8 workers must produce bit-identical
// estimates, point records and journal streams (wall-clock fields
// excepted). Run it with -race to also exercise the scheduler for data
// races.
func TestExecutePlanDeterministicAcrossWorkers(t *testing.T) {
	configs := []cpu.Config{config.BaseA(), config.SensitivityB()}
	for _, spec := range bench.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := spec.MustProgram(bench.SizeTiny)
			plan, _, _, err := simpoint.Select(p, simpoint.Config{
				IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range configs {
				var wantEst *Estimate
				var wantJournal []map[string]any
				for _, workers := range []int{1, 2, 4, 8} {
					var buf bytes.Buffer
					sink := obs.NewJSONLSink(&buf)
					rt := obs.New(sink)
					est, err := ExecutePlan(p, plan, cfg, ExecOptions{
						Warmup:       2000,
						DetailLeadIn: 256,
						Workers:      workers,
						Obs:          rt,
					})
					if err != nil {
						t.Fatalf("config %s workers %d: %v", cfg.Name, workers, err)
					}
					if err := sink.Err(); err != nil {
						t.Fatal(err)
					}
					got := stripWall(est)
					journal := journalSkeleton(t, &buf)
					if wantEst == nil {
						wantEst, wantJournal = got, journal
						continue
					}
					if !reflect.DeepEqual(got, wantEst) {
						t.Errorf("config %s: workers=%d estimate differs from workers=1:\n got %s\nwant %s",
							cfg.Name, workers, dumpEstimate(got), dumpEstimate(wantEst))
					}
					if !reflect.DeepEqual(journal, wantJournal) {
						t.Errorf("config %s: workers=%d journal stream differs from workers=1", cfg.Name, workers)
					}
				}
			}
		})
	}
}

// TestExecutePlanSharedCacheDeterministic: executions of one plan that
// run concurrently and repeatedly over the same *prog.Program — what
// Table II does with a benchmark's plans under both configurations —
// share only the program's derived state (predecode, dataflow), never
// machine state, so none of them may change another's results.
func TestExecutePlanSharedCacheDeterministic(t *testing.T) {
	p := phasedProgram(t, 30)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{IntervalLen: 2000, Kmax: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*Estimate, error) {
		est, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{Warmup: 3000, Workers: workers})
		if err != nil {
			return nil, err
		}
		return stripWall(est), nil
	}
	base, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		workers := []int{1, 4, 4}
		got := make([]*Estimate, len(workers))
		errs := make([]error, len(workers))
		var wg sync.WaitGroup
		for i, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = run(w)
			}()
		}
		wg.Wait()
		for i, w := range workers {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(got[i], base) {
				t.Errorf("pass %d: concurrent run with workers=%d differs from the sequential run", pass, w)
			}
		}
	}
}

// TestExecutePlanMismatchedCacheIgnored: executing another program's
// plan at the same time must not change this program's results; every
// derived structure and every machine stays keyed to its own program.
func TestExecutePlanMismatchedCacheIgnored(t *testing.T) {
	p := phasedProgram(t, 20)
	other := phasedProgram(t, 5)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{IntervalLen: 1000, Kmax: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	otherPlan, _, _, err := simpoint.Select(other, simpoint.Config{IntervalLen: 1000, Kmax: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{Warmup: 3000, Workers: 2}
	want, err := ExecutePlan(p, plan, config.BaseA(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg       sync.WaitGroup
		otherErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, otherErr = ExecutePlan(other, otherPlan, config.BaseA(), opts)
	}()
	got, err := ExecutePlan(p, plan, config.BaseA(), opts)
	wg.Wait()
	if err != nil || otherErr != nil {
		t.Fatal(err, otherErr)
	}
	if !reflect.DeepEqual(stripWall(got), stripWall(want)) {
		t.Error("another program's concurrent execution changed results")
	}
}

func dumpEstimate(e *Estimate) string {
	return fmt.Sprintf("{CPI:%v L1:%v L2:%v Points:%d Det:%d Fun:%d recs:%d}",
		e.CPI, e.L1Hit, e.L2Hit, e.Points, e.DetailedInsts, e.FunctionalInsts, len(e.PointRecords))
}
