package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// MeanAbsPctError returns the mean of |pred-actual|/|actual| over the
// paired slices, skipping pairs whose actual value is zero. It panics if
// the slices differ in length.
func MeanAbsPctError(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic("stats: MeanAbsPctError length mismatch")
	}
	s, n := 0.0, 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
