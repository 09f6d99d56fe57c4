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

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Min returns the smallest element of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
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

// Histogram counts xs into nbins equal-width bins spanning [lo, hi).
// Values below lo fall into the first bin, values at or above hi into the
// last. It panics if nbins <= 0 or hi <= lo.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins <= 0 || hi <= lo {
		panic("stats: invalid Histogram parameters")
	}
	counts := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}
