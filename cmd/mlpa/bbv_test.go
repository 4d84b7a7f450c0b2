package main

import (
	"os"
	"strings"
	"testing"
)

func TestObtainTraceFine(t *testing.T) {
	tr, err := obtainTrace(&flags{benchmark: "gzip", size: "tiny", granularity: "fine", seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != "fixed" || len(tr.Intervals) < 10 {
		t.Errorf("trace kind=%v intervals=%d", tr.Kind, len(tr.Intervals))
	}
}

func TestObtainTraceCoarse(t *testing.T) {
	tr, err := obtainTrace(&flags{benchmark: "gzip", size: "tiny", granularity: "coarse", seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != "iteration" {
		t.Errorf("trace kind = %v", tr.Kind)
	}
}

func TestObtainTraceErrors(t *testing.T) {
	if _, err := obtainTrace(&flags{benchmark: "bogus", size: "tiny", granularity: "fine", seed: 1}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := obtainTrace(&flags{benchmark: "gzip", size: "huge", granularity: "fine", seed: 1}); err == nil {
		t.Error("unknown size accepted")
	}
	if _, err := obtainTrace(&flags{benchmark: "gzip", size: "tiny", granularity: "diagonal", seed: 1}); err == nil {
		t.Error("unknown granularity accepted")
	}
}

// TestRunBBV checks the CSV shape: the header comment, one pcN column
// per requested principal component, and one row per interval.
func TestRunBBV(t *testing.T) {
	out, err := captureOutput(t, &os.Stdout, func() error {
		return run([]string{"bbv", "-size", "tiny", "-bench", "gzip", "-granularity", "coarse", "-pca", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 4 || !strings.HasPrefix(lines[0], "# benchmark=gzip kind=iteration ") ||
		lines[1] != "interval,start,end,pc1,pc2" {
		t.Fatalf("unexpected CSV:\n%s", out)
	}
	for _, row := range lines[2:] {
		if got := strings.Count(row, ","); got != 4 {
			t.Errorf("row %q has %d commas, want 4", row, got)
		}
	}
}
