package stats

import (
	"math"
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

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := math.Sqrt(Variance(xs)); math.Abs(got-2) > 1e-12 {
		t.Fatalf("standard deviation = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance single = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Fatalf("Min/Max wrong: %v %v", Min(xs), Max(xs))
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
		return p0 == Min(xs) && p100 == Max(xs) && p0 <= p50 && p50 <= p100
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

func TestHistogram(t *testing.T) {
	xs := []float64{0.5, 1.5, 1.6, 2.5, -1, 99}
	h := Histogram(xs, 0, 3, 3)
	if h[0] != 2 || h[1] != 2 || h[2] != 2 {
		t.Fatalf("Histogram = %v", h)
	}
}

func TestHistogramTotalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := r.IntRange(0, 200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormMS(0, 5)
		}
		h := Histogram(xs, -10, 10, 8)
		total := 0
		for _, c := range h {
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
