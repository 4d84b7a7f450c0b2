package pipeline

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
)

// ckptExecOpts is the warm policy the checkpoint differential tests
// run under — finite warmup, so checkpoint-backed execution actually
// replaces fast-forward work (Warmup=MaxUint64 would pin every warm
// start to instruction zero).
func ckptExecOpts(workers int) ExecOptions {
	return ExecOptions{Warmup: 2000, DetailLeadIn: 256, Workers: workers}
}

// harnessExecOpts is the experiment harness's default warm policy:
// unbounded warmup pins every warm start to instruction 0, so every
// point after a chunk's first continues one spine, and scratch
// execution rewinds the machine to the predecessor's boundary through
// the spine's capture.
func harnessExecOpts(workers int) ExecOptions {
	return ExecOptions{Warmup: math.MaxUint64, DetailLeadIn: 512, Workers: workers}
}

// TestCheckpointBackedBitIdentical is the acceptance harness for
// checkpoint-backed execution: for every suite benchmark under both
// warm policies above, both Table I configurations and 1 and 4
// workers, ExecutePlan restoring from a BuildCheckpointSet set must
// produce bit-identical estimates, point records and journal streams
// to from-scratch execution (wall-clock fields excepted). Run with
// -race in CI.
func TestCheckpointBackedBitIdentical(t *testing.T) {
	policies := []struct {
		name string
		opts func(workers int) ExecOptions
	}{{"finite", ckptExecOpts}, {"harness", harnessExecOpts}}
	for _, spec := range bench.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := spec.MustProgram(bench.SizeTiny)
			plan := suitePlan(t, p)
			for _, pol := range policies {
				checkCheckpointBacked(t, p, plan, pol.name, pol.opts)
			}
		})
	}
}

// suitePlan is the SimPoint plan the checkpoint differential tests
// execute for a suite program.
func suitePlan(t *testing.T, p *prog.Program) *sampling.Plan {
	t.Helper()
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// checkCheckpointBacked executes plan from scratch and from a
// checkpoint set built under policy, for both Table I configurations
// and 1 and 4 workers, and fails t unless the estimates and journal
// streams are bit-identical (wall-clock fields excepted). It returns
// the from-scratch estimates.
func checkCheckpointBacked(t *testing.T, p *prog.Program, plan *sampling.Plan, name string, policy func(workers int) ExecOptions) []*Estimate {
	t.Helper()
	set, err := BuildCheckpointSet(p, plan, policy(1))
	if err != nil {
		t.Fatal(err)
	}
	var scratch []*Estimate
	for _, cfg := range []cpu.Config{config.BaseA(), config.SensitivityB()} {
		for _, workers := range []int{1, 4} {
			runOne := func(set *ckpt.Set) (*Estimate, []map[string]any) {
				var buf bytes.Buffer
				sink := obs.NewJSONLSink(&buf)
				opts := policy(workers)
				opts.Obs = obs.New(sink)
				opts.Checkpoints = set
				est, err := ExecutePlan(p, plan, cfg, opts)
				if err != nil {
					t.Fatalf("%s policy, config %s workers %d ckpt=%v: %v", name, cfg.Name, workers, set != nil, err)
				}
				if err := sink.Err(); err != nil {
					t.Fatal(err)
				}
				return stripWall(est), journalSkeleton(t, &buf)
			}
			wantEst, wantJournal := runOne(nil)
			gotEst, gotJournal := runOne(set)
			if !reflect.DeepEqual(gotEst, wantEst) {
				t.Errorf("%s policy, config %s workers %d: checkpoint-backed estimate differs from scratch:\n got %s\nwant %s",
					name, cfg.Name, workers, dumpEstimate(gotEst), dumpEstimate(wantEst))
			}
			if !reflect.DeepEqual(gotJournal, wantJournal) {
				t.Errorf("%s policy, config %s workers %d: checkpoint-backed journal stream differs from scratch",
					name, cfg.Name, workers)
			}
			scratch = append(scratch, wantEst)
		}
	}
	return scratch
}

// TestCheckpointBackedFromDisk: a set that has round-tripped through
// the on-disk layout (Save → Load, program reassembled from the
// embedded image) still drives bit-identical execution.
func TestCheckpointBackedFromDisk(t *testing.T) {
	spec := bench.Suite()[0]
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildCheckpointSet(p, plan, ckptExecOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.BaseA()
	want, err := ExecutePlan(p, plan, cfg, ckptExecOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	// Execute against the loaded set's own reassembled program and plan
	// — the CLI path, where no in-memory originals exist.
	opts := ckptExecOpts(2)
	opts.Checkpoints = loaded
	got, err := ExecutePlan(loaded.Program, loaded.Plan, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(got), stripWall(want)) {
		t.Errorf("disk-loaded checkpoint execution differs from scratch:\n got %s\nwant %s",
			dumpEstimate(stripWall(got)), dumpEstimate(stripWall(want)))
	}
}

// TestExecutePlanRejectsMismatchedSet: a set built for a different
// warm policy, plan or program fails ExecutePlan up front with
// ckpt.ErrMismatch instead of producing wrong estimates.
func TestExecutePlanRejectsMismatchedSet(t *testing.T) {
	suite := bench.Suite()
	p := suite[0].MustProgram(bench.SizeTiny)
	other := suite[1].MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildCheckpointSet(p, plan, ckptExecOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.BaseA()

	opts := ckptExecOpts(1)
	opts.Warmup = 4000 // different policy than the set was built for
	opts.Checkpoints = set
	if _, err := ExecutePlan(p, plan, cfg, opts); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("policy mismatch: got %v, want ckpt.ErrMismatch", err)
	}

	otherPlan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts = ckptExecOpts(1)
	opts.Checkpoints = set
	if _, err := ExecutePlan(p, otherPlan, cfg, opts); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("plan mismatch: got %v, want ckpt.ErrMismatch", err)
	}

	if _, err := ExecutePlan(other, plan, cfg, opts); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("program mismatch: got %v, want ckpt.ErrMismatch", err)
	}
}
