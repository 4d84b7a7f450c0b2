// Package changepoint provides robust shift detection for performance
// series: a median/MAD two-sample shift test, the gate behind
// `mlpa bench -compare`. Medians and median absolute deviations
// replace means and standard deviations throughout, so a handful of
// outliers — a GC pause in a wall time, one pathological benchmark in
// a deviation series — cannot manufacture or mask a shift.
package changepoint

import (
	"math"
	"sort"
)

// madScale rescales a median absolute deviation to estimate the
// standard deviation of normal data (1 / Phi^-1(3/4)).
const madScale = 1.4826

// Median returns the median of xs (NaN for an empty slice). The input
// is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation of xs around its median
// (NaN for an empty slice). Unscaled; multiply by 1.4826 to estimate a
// normal standard deviation.
func MAD(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	m := Median(xs)
	dev := make([]float64, n)
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// ShiftOptions tunes ShiftTest. The zero value picks the defaults.
type ShiftOptions struct {
	// MinRel is the minimum relative center shift |new-old|/|old| that
	// counts as significant (default 0.10). It is the noise floor for
	// tiny samples, where no spread estimate exists.
	MinRel float64
	// Z is the robust z-score (center shift over MAD-derived standard
	// error) additionally required once both samples carry a usable
	// spread estimate (default 3).
	Z float64
}

func (o ShiftOptions) withDefaults() ShiftOptions {
	if o.MinRel == 0 {
		o.MinRel = 0.10
	}
	if o.Z == 0 {
		o.Z = 3
	}
	return o
}

// Shift is the outcome of a robust two-sample comparison.
type Shift struct {
	// OldCenter and NewCenter are the sample medians.
	OldCenter, NewCenter float64
	// Rel is the relative shift (NewCenter-OldCenter)/|OldCenter|
	// (sign preserved; +Inf magnitude when OldCenter is zero and the
	// centers differ).
	Rel float64
	// Z is the robust z-score of the shift, or NaN when neither sample
	// yields a spread estimate (fewer than two points, or zero MAD).
	Z float64
	// Significant reports whether the shift clears both gates: |Rel|
	// >= MinRel always, and Z >= opt.Z whenever Z is available.
	Significant bool
}

// ShiftTest compares two samples of the same metric with a median/MAD
// shift test. The center shift is the difference of medians; its
// standard error is estimated from the pooled scaled MADs
// (sqrt(s_old²/n_old + s_new²/n_new)). Samples need not be the same
// length; single-point samples (the bench report's scalar metrics)
// degrade to the pure relative-threshold gate.
func ShiftTest(oldS, newS []float64, opt ShiftOptions) Shift {
	opt = opt.withDefaults()
	sh := Shift{
		OldCenter: Median(oldS),
		NewCenter: Median(newS),
		Z:         math.NaN(),
	}
	if len(oldS) == 0 || len(newS) == 0 {
		return sh
	}
	diff := sh.NewCenter - sh.OldCenter
	switch {
	case sh.OldCenter != 0:
		sh.Rel = diff / math.Abs(sh.OldCenter)
	case diff != 0:
		sh.Rel = math.Inf(1) * sign(diff)
	}
	var se float64
	if len(oldS) >= 2 && len(newS) >= 2 {
		so := madScale * MAD(oldS)
		sn := madScale * MAD(newS)
		se = math.Sqrt(so*so/float64(len(oldS)) + sn*sn/float64(len(newS)))
	}
	if se > 0 {
		sh.Z = math.Abs(diff) / se
	}
	sh.Significant = math.Abs(sh.Rel) >= opt.MinRel &&
		(math.IsNaN(sh.Z) || sh.Z >= opt.Z)
	return sh
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
