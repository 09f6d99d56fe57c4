package stats

import (
	"math"
	"testing"
)

// TestReservoirExactBelowCapacity: until the reservoir fills it is the
// stream verbatim, so digests are exact.
func TestReservoirExactBelowCapacity(t *testing.T) {
	r := NewReservoir(64, 1)
	xs := []float64{5, 1, 4, 2, 3}
	for _, x := range xs {
		r.Add(x)
	}
	if r.Count() != 5 || r.Len() != 5 {
		t.Fatalf("count %d len %d, want 5/5", r.Count(), r.Len())
	}
	if got, want := r.Mean(), Mean(xs); got != want {
		t.Fatalf("mean %v, want %v", got, want)
	}
	qs := r.Quantiles(50, 100)
	if qs[0] != 3 || qs[1] != 5 {
		t.Fatalf("quantiles %v, want [3 5]", qs)
	}
	want := Summary{Count: 5, Mean: Mean(xs), P50: Percentile(xs, 50), P95: Percentile(xs, 95), P99: Percentile(xs, 99)}
	if got := r.Summary(); got != want {
		t.Fatalf("summary %+v, want %+v", got, want)
	}
	var nilR *Reservoir
	if got := nilR.Summary(); got != (Summary{}) {
		t.Fatalf("nil reservoir summary %+v, want zero", got)
	}
	if got := NewReservoir(8, 1).Summary(); got != (Summary{}) {
		t.Fatalf("empty reservoir summary %+v, want zero", got)
	}
}

// TestReservoirBoundedMemoryAndTolerance is the regression test for the
// online tier's unbounded latency slices: one million observations must
// hold at most capacity samples while the percentile digest stays
// within tolerance of the exact population percentiles and the mean
// stays exact.
func TestReservoirBoundedMemoryAndTolerance(t *testing.T) {
	const (
		n   = 1_000_000
		cap = 4096
	)
	r := NewReservoir(cap, 42)
	gen := NewRNG(7)
	sum := 0.0
	for i := 0; i < n; i++ {
		x := gen.Exp(0.5) // exponential: heavy enough tail to stress p99
		sum += x
		r.Add(x)
	}
	if r.Len() != cap {
		t.Fatalf("reservoir holds %d samples, want exactly %d", r.Len(), cap)
	}
	if r.Count() != n {
		t.Fatalf("count %d, want %d", r.Count(), n)
	}
	if got, want := r.Mean(), sum/n; math.Abs(got-want) > 1e-9 {
		t.Fatalf("running mean %v drifted from exact %v", got, want)
	}
	// Exact quantiles of Exp(rate): q(p) = -ln(1-p)/rate.
	exact := func(p float64) float64 { return -math.Log(1-p/100) / 0.5 }
	qs := r.Quantiles(50, 95, 99)
	for i, p := range []float64{50, 95, 99} {
		want := exact(p)
		if rel := math.Abs(qs[i]-want) / want; rel > 0.10 {
			t.Errorf("p%.0f estimate %.4f vs exact %.4f: %.1f%% off (tolerance 10%%)", p, qs[i], want, rel*100)
		}
	}
}

// TestReservoirDeterministic: same seed and stream, same kept sample.
func TestReservoirDeterministic(t *testing.T) {
	a, b := NewReservoir(32, 9), NewReservoir(32, 9)
	gen := NewRNG(3)
	for i := 0; i < 10_000; i++ {
		x := gen.Float64()
		a.Add(x)
		b.Add(x)
	}
	qa, qb := a.Quantiles(50, 95, 99), b.Quantiles(50, 95, 99)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("same seed diverged: %v vs %v", qa, qb)
		}
	}
}

// TestReservoirEmpty: zero values, no panic.
func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir(8, 1)
	if r.Mean() != 0 || r.Count() != 0 {
		t.Fatalf("empty reservoir mean %v count %d", r.Mean(), r.Count())
	}
	for _, q := range r.Quantiles(50, 95) {
		if q != 0 {
			t.Fatalf("empty reservoir quantiles %v", r.Quantiles(50, 95))
		}
	}
}
