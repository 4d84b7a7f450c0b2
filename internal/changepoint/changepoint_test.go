package changepoint

import (
	"math"
	"testing"
)

func TestMedianAndMAD(t *testing.T) {
	cases := []struct {
		xs       []float64
		med, mad float64
	}{
		{[]float64{3}, 3, 0},
		{[]float64{1, 2, 3}, 2, 1},
		{[]float64{1, 2, 3, 4}, 2.5, 1},
		{[]float64{5, 5, 5, 5}, 5, 0},
		{[]float64{1, 1, 1, 100}, 1, 0},
	}
	for _, c := range cases {
		if got := Median(c.xs); got != c.med {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if got := MAD(c.xs); got != c.mad {
			t.Errorf("MAD(%v) = %v, want %v", c.xs, got, c.mad)
		}
	}
	if !math.IsNaN(Median(nil)) || !math.IsNaN(MAD(nil)) {
		t.Error("empty median/MAD should be NaN")
	}
	// The input must not be reordered.
	xs := []float64{3, 1, 2}
	Median(xs)
	MAD(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median/MAD mutated their input: %v", xs)
	}
}

func TestShiftTestIdenticalSamples(t *testing.T) {
	s := []float64{1.0, 1.1, 0.9, 1.05, 0.95}
	sh := ShiftTest(s, s, ShiftOptions{})
	if sh.Significant {
		t.Errorf("identical samples flagged significant: %+v", sh)
	}
	if sh.Rel != 0 {
		t.Errorf("identical samples Rel = %v, want 0", sh.Rel)
	}
}

func TestShiftTestScalarRelGate(t *testing.T) {
	// Single-point samples: pure relative threshold.
	if sh := ShiftTest([]float64{100}, []float64{95}, ShiftOptions{}); sh.Significant {
		t.Errorf("5%% scalar shift flagged significant: %+v", sh)
	}
	sh := ShiftTest([]float64{100}, []float64{80}, ShiftOptions{})
	if !sh.Significant {
		t.Errorf("20%% scalar shift not flagged: %+v", sh)
	}
	if math.Abs(sh.Rel - -0.2) > 1e-12 {
		t.Errorf("Rel = %v, want -0.2", sh.Rel)
	}
}

func TestShiftTestSpreadGate(t *testing.T) {
	// A 15% median shift well inside the samples' own noise must not
	// gate; the same shift on tight samples must.
	noisyOld := []float64{1.0, 2.0, 0.5, 1.5, 0.8, 2.2, 1.2, 0.6}
	noisyNew := make([]float64, len(noisyOld))
	for i, v := range noisyOld {
		noisyNew[i] = v * 1.15
	}
	if sh := ShiftTest(noisyOld, noisyNew, ShiftOptions{}); sh.Significant {
		t.Errorf("within-noise shift flagged significant: %+v", sh)
	}
	tightOld := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99}
	tightNew := make([]float64, len(tightOld))
	for i, v := range tightOld {
		tightNew[i] = v * 1.15
	}
	sh := ShiftTest(tightOld, tightNew, ShiftOptions{})
	if !sh.Significant {
		t.Errorf("clear tight-sample shift not flagged: %+v", sh)
	}
	if sh.Z < 3 {
		t.Errorf("tight-sample Z = %v, want >= 3", sh.Z)
	}
}

func TestShiftTestZeroOldCenter(t *testing.T) {
	sh := ShiftTest([]float64{0}, []float64{1}, ShiftOptions{})
	if !math.IsInf(sh.Rel, 1) {
		t.Errorf("Rel from zero center = %v, want +Inf", sh.Rel)
	}
	if !sh.Significant {
		t.Errorf("appearance from zero not flagged: %+v", sh)
	}
}
