package main

import (
	"strings"
	"testing"
)

// TestParallelGate: the gate passes or fails on the plan walls only
// when workers=4 actually ran as more than one chunk; a one-chunk
// schedule is reported as not measured, never as ok.
func TestParallelGate(t *testing.T) {
	m := &microReport{PlanWalls: map[string]int64{"1": 100e6, "4": 60e6}, PlanChunks: map[string]int{"4": 3}}
	if msg, err := parallelGate(m, 4); err != nil || !strings.HasPrefix(msg, "parallel gate ok") {
		t.Errorf("faster workers=4: %q, %v", msg, err)
	}
	m.PlanWalls["4"] = 200e6
	if _, err := parallelGate(m, 4); err == nil {
		t.Error("slower workers=4 passed the gate")
	}
	m.PlanChunks["4"] = 1
	msg, err := parallelGate(m, 1)
	if err != nil || !strings.HasPrefix(msg, "parallel gate not measured") || !strings.Contains(msg, "GOMAXPROCS=1") {
		t.Errorf("one-chunk schedule: %q, %v", msg, err)
	}
}
