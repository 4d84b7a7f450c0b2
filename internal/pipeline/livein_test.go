package pipeline

import (
	"bytes"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/config"
	"mlpa/internal/obs"
	"mlpa/internal/simpoint"
	"mlpa/internal/staticanalysis/dataflow"
)

// boundaryExecOpts is a cold policy: with no warmup (as in
// ColdStartAblation's cold runs) each point's warm start is its
// detailed boundary, so a checkpoint restores the live-in-scrubbed
// state exactly there.
func boundaryExecOpts(workers int) ExecOptions {
	return ExecOptions{DetailLeadIn: 256, Workers: workers}
}

// TestScrubDeadRegsSoundness is the execution-based soundness harness
// for the static live-in sets, run over the full builder suite: at
// every selected simulation point's boundary, clearing each register
// NOT in the static live-in set must leave the sampled simulation
// bit-identical — same estimates, same per-point metrics, same journal
// stream (wall-clock fields excepted). Checkpoint restore applies that
// scrub at each point's warm start, which the cold boundary policy puts
// on the detailed boundary, so checkpoint-backed execution is compared
// against from-scratch execution. Run with -race in CI.
func TestScrubDeadRegsSoundness(t *testing.T) {
	for _, spec := range bench.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := spec.MustProgram(bench.SizeTiny)
			for _, est := range checkCheckpointBacked(t, p, suitePlan(t, p), "boundary", boundaryExecOpts) {
				// Every point must carry a live-in summary for its boundary.
				for i, rec := range est.PointRecords {
					if rec.LiveIn.PC < 0 || rec.LiveIn.PC >= int64(len(p.Code)) {
						t.Fatalf("point %d: live-in pc %d out of range", i, rec.LiveIn.PC)
					}
					if dataflow.FromMasks(rec.LiveIn.Int, rec.LiveIn.FP)&^dataflow.AllRegs != 0 {
						t.Fatalf("point %d: live-in masks set the r0 bit", i)
					}
				}
			}
		})
	}
}

// TestStaticLiveinJournaled: the journal stream carries one
// static_livein record per point, keyed like the point records and
// consistent with the estimate's live-in summaries.
func TestStaticLiveinJournaled(t *testing.T) {
	p := phasedProgram(t, 20)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{IntervalLen: 1000, Kmax: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	est, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{Workers: 2, Obs: obs.New(sink)})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var livein []map[string]any
	for _, rec := range recs {
		if ev, _ := rec["ev"].(string); ev == "static_livein" {
			livein = append(livein, rec)
		}
	}
	if len(livein) != len(est.PointRecords) {
		t.Fatalf("%d static_livein records for %d points", len(livein), len(est.PointRecords))
	}
	for i, rec := range livein {
		want := est.PointRecords[i]
		if int(rec["index"].(float64)) != want.Index {
			t.Errorf("record %d: index %v, want %d", i, rec["index"], want.Index)
		}
		if int64(rec["pc"].(float64)) != want.LiveIn.PC {
			t.Errorf("record %d: pc %v, want %d", i, rec["pc"], want.LiveIn.PC)
		}
		if uint32(rec["live_int"].(float64)) != want.LiveIn.Int {
			t.Errorf("record %d: live_int %v, want %d", i, rec["live_int"], want.LiveIn.Int)
		}
		if uint32(rec["live_fp"].(float64)) != want.LiveIn.FP {
			t.Errorf("record %d: live_fp %v, want %d", i, rec["live_fp"], want.LiveIn.FP)
		}
		if rec["mem"].(bool) != want.LiveIn.Mem {
			t.Errorf("record %d: mem %v, want %v", i, rec["mem"], want.LiveIn.Mem)
		}
		if want := dataflow.FromMasks(want.LiveIn.Int, want.LiveIn.FP).String(); rec["regs"] != want {
			t.Errorf("record %d: regs %q, want %q", i, rec["regs"], want)
		}
	}
}
