package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSoftmaxRowSumsToOne(t *testing.T) {
	xs := []float32{1, 2, 3, 4}
	SoftmaxRow(xs)
	var sum float64
	for _, v := range xs {
		if v <= 0 {
			t.Fatalf("softmax produced non-positive %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("softmax sum = %v", sum)
	}
	// Monotone: larger logits → larger probabilities.
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("softmax not monotone: %v", xs)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	xs := []float32{1000, 1001, 1002}
	SoftmaxRow(xs)
	for _, v := range xs {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflow: %v", xs)
		}
	}
}

func TestSoftmaxProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := r.IntRange(1, 32)
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32(r.NormMS(0, 10))
		}
		SoftmaxRow(xs)
		var sum float64
		for _, v := range xs {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogSoftmaxMatchesSoftmax(t *testing.T) {
	xs := []float32{0.5, -1, 2, 0}
	ls := LogSoftmaxRow(xs, 2)
	cp := append([]float32(nil), xs...)
	SoftmaxRow(cp)
	if math.Abs(ls-math.Log(float64(cp[2]))) > 1e-6 {
		t.Fatalf("LogSoftmaxRow = %v, want %v", ls, math.Log(float64(cp[2])))
	}
}

func TestLayerNorm(t *testing.T) {
	m := FromSlice(1, 4, []float32{1, 2, 3, 4})
	gain := []float32{1, 1, 1, 1}
	bias := []float32{0, 0, 0, 0}
	LayerNorm(m, gain, bias, 1e-5)
	row := m.Row(0)
	var mean, varr float64
	for _, v := range row {
		mean += float64(v)
	}
	mean /= 4
	for _, v := range row {
		varr += (float64(v) - mean) * (float64(v) - mean)
	}
	varr /= 4
	if math.Abs(mean) > 1e-5 || math.Abs(varr-1) > 1e-3 {
		t.Fatalf("LayerNorm mean=%v var=%v", mean, varr)
	}
}

func TestLayerNormGainBias(t *testing.T) {
	m := FromSlice(1, 2, []float32{-1, 1})
	LayerNorm(m, []float32{2, 2}, []float32{5, 5}, 1e-5)
	// Normalized row is (-1, 1); gain 2 bias 5 → (3, 7).
	if math.Abs(float64(m.At(0, 0))-3) > 1e-2 || math.Abs(float64(m.At(0, 1))-7) > 1e-2 {
		t.Fatalf("LayerNorm with gain/bias = %v", m.Data)
	}
}

func TestGELU(t *testing.T) {
	m := FromSlice(1, 3, []float32{-10, 0, 10})
	GELU(m)
	if m.At(0, 0) < -0.01 || m.At(0, 0) > 0.01 {
		t.Fatalf("GELU(-10) = %v, want ~0", m.At(0, 0))
	}
	if m.At(0, 1) != 0 {
		t.Fatalf("GELU(0) = %v", m.At(0, 1))
	}
	if math.Abs(float64(m.At(0, 2))-10) > 0.01 {
		t.Fatalf("GELU(10) = %v, want ~10", m.At(0, 2))
	}
}

func TestReLU(t *testing.T) {
	m := FromSlice(1, 3, []float32{-1, 0, 2})
	ReLU(m)
	if m.Data[0] != 0 || m.Data[1] != 0 || m.Data[2] != 2 {
		t.Fatalf("ReLU = %v", m.Data)
	}
}

func TestArgmaxRow(t *testing.T) {
	if got := ArgmaxRow([]float32{1, 5, 3}); got != 1 {
		t.Fatalf("ArgmaxRow = %d", got)
	}
	if got := ArgmaxRow([]float32{7}); got != 0 {
		t.Fatalf("ArgmaxRow single = %d", got)
	}
}
