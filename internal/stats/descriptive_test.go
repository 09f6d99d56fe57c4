package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{1, 2, 3, 100}, 50); got != 2.5 {
		t.Fatalf("P50 = %v", got)
	}
}

func TestPercentileProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := r.IntRange(1, 100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormMS(0, 10)
		}
		p0, p50, p100 := Percentile(xs, 0), Percentile(xs, 50), Percentile(xs, 100)
		// Percentiles must be monotone and bounded by min/max.
		return p0 == slices.Min(xs) && p100 == slices.Max(xs) && p0 <= p50 && p50 <= p100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAbsPctError(t *testing.T) {
	got := MeanAbsPctError([]float64{110, 90}, []float64{100, 100})
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE = %v, want 0.1", got)
	}
	// Zero actuals are skipped.
	got = MeanAbsPctError([]float64{5, 110}, []float64{0, 100})
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE with zero actual = %v, want 0.1", got)
	}
}
