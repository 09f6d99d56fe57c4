package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 coincided %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64RangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 64; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("IntRange(10,20) = %d", v)
		}
	}
	if got := r.IntRange(5, 5); got != 5 {
		t.Fatalf("IntRange(5,5) = %d", got)
	}
}

// variance returns the population variance of xs.
func variance(xs []float64) float64 {
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return s / float64(len(xs))
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(99)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm()
	}
	if m := Mean(xs); math.Abs(m) > 0.02 {
		t.Fatalf("standard normal mean = %v", m)
	}
	if v := variance(xs); math.Abs(v-1) > 0.03 {
		t.Fatalf("standard normal variance = %v", v)
	}
}

func TestNormMS(t *testing.T) {
	r := NewRNG(4)
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormMS(10, 2)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.05 {
		t.Fatalf("NormMS mean = %v", m)
	}
	if s := math.Sqrt(variance(xs)); math.Abs(s-2) > 0.05 {
		t.Fatalf("NormMS stddev = %v", s)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(1, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(6)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Exp(2)
	}
	if m := Mean(xs); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", m)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%64) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceDistribution(t *testing.T) {
	r := NewRNG(13)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("Choice weights not respected: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if math.Abs(frac-0.7) > 0.02 {
		t.Fatalf("Choice weight-7 fraction = %v, want ~0.7", frac)
	}
}

func TestChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-sum weights")
		}
	}()
	NewRNG(1).Choice([]float64{0, 0})
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(21)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams start identically")
	}
}
