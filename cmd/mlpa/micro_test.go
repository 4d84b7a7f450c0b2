package main

import (
	"strings"
	"testing"

	"mlpa/internal/pipeline"
)

// TestParallelGate: the gate passes or fails on the plan walls only
// when workers=4 actually ran as more than one chunk; a one-chunk
// schedule is reported as not measured, never as ok.
func TestParallelGate(t *testing.T) {
	m := &microReport{PlanWall1: 100e6, PlanWall4: 60e6, PlanChunks: map[string]int{"4": 3}}
	if msg, err := parallelGate(m, 4); err != nil || !strings.HasPrefix(msg, "parallel gate ok") {
		t.Errorf("faster workers=4: %q, %v", msg, err)
	}
	m.PlanWall4 = 200e6
	if _, err := parallelGate(m, 4); err == nil {
		t.Error("slower workers=4 passed the gate")
	}
	m.PlanChunks["4"] = 1
	msg, err := parallelGate(m, 1)
	if err != nil || !strings.HasPrefix(msg, "parallel gate not measured") || !strings.Contains(msg, "GOMAXPROCS=1") {
		t.Errorf("one-chunk schedule: %q, %v", msg, err)
	}
}

// TestEstimateDiff: wall-clock fields never count as a difference; any
// other field does, and the first differing point is named.
func TestEstimateDiff(t *testing.T) {
	mk := func() *pipeline.Estimate {
		return &pipeline.Estimate{CPI: 1.5, L1Hit: 0.9, L2Hit: 0.5, PointRecords: []pipeline.PointRecord{
			{Index: 0, Cycles: 10, WallDetailed: 5}, {Index: 1, Cycles: 20}, {Index: 2, Cycles: 30},
		}}
	}
	a, b := mk(), mk()
	b.WallFunctional = 7
	b.PointRecords[0].WallDetailed, b.PointRecords[2].WallFunctional = 9, 3
	if d := estimateDiff(a, b); d != "" {
		t.Errorf("wall-only difference reported: %s", d)
	}
	b.L2Hit = 0.25
	if d := estimateDiff(a, b); !strings.Contains(d, "L2 hit rate") {
		t.Errorf("L2 hit rate difference: %q", d)
	}
	b = mk()
	b.PointRecords[2].L1Hits, b.PointRecords[1].Cycles = 4, 21
	if d := estimateDiff(a, b); !strings.HasPrefix(d, "point 1:") {
		t.Errorf("point difference: %q, want point 1 named", d)
	}
}
