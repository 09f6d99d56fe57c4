package quant

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// outlierActivations builds calibration activations with a few huge
// channels, the phenomenon SmoothQuant targets.
func outlierActivations(rng *stats.RNG, samples, channels int) *tensor.Matrix {
	x := tensor.NewMatrix(samples, channels)
	for r := 0; r < samples; r++ {
		for c := 0; c < channels; c++ {
			std := 0.5
			if c%16 == 0 {
				std = 20 // outlier channel
			}
			x.Set(r, c, float32(rng.NormMS(0, std)))
		}
	}
	return x
}

// applySmoothing returns rescaled copies (w', x') such that x'·w'
// equals x·w in real arithmetic.
func applySmoothing(w, x *tensor.Matrix, scales []float64) (*tensor.Matrix, *tensor.Matrix) {
	wOut := w.Clone()
	for j := 0; j < w.Rows; j++ {
		row := wOut.Row(j)
		for c := range row {
			row[c] *= float32(scales[j])
		}
	}
	xOut := x.Clone()
	for r := 0; r < x.Rows; r++ {
		row := xOut.Row(r)
		for j := range row {
			row[j] /= float32(scales[j])
		}
	}
	return wOut, xOut
}

// jointQuantError measures the W8A8-style end-to-end error of a linear
// operator: both weights (in × out) and activations (samples × in) are
// fake-quantized with their schemes and the mean squared output
// deviation ‖X·W − X̂·Ŵ‖²/n is returned.
func jointQuantError(t *testing.T, w, x *tensor.Matrix, weightScheme, actScheme Scheme) float64 {
	t.Helper()
	wq, err := QuantDequant(w, weightScheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	xq, err := QuantDequant(x, actScheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := tensor.MatMul(x, w)
	got := tensor.MatMul(xq, wq)
	var sum float64
	for i := range ref.Data {
		d := float64(ref.Data[i] - got.Data[i])
		sum += d * d
	}
	return sum / float64(len(ref.Data))
}

func TestSmoothingPreservesProduct(t *testing.T) {
	rng := stats.NewRNG(200)
	w := randMatrix(rng, 32, 24, 0.05) // in=32, out=24
	x := outlierActivations(rng, 16, 32)
	scales, err := SmoothScales(w, x, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ws, xs := applySmoothing(w, x, scales)
	ref := tensor.MatMul(x, w)
	got := tensor.MatMul(xs, ws)
	if d := tensor.MaxAbsDiff(ref, got); d > 1e-2 {
		t.Fatalf("smoothing changed the product by %v", d)
	}
}

func TestSmoothingReducesJointQuantError(t *testing.T) {
	rng := stats.NewRNG(201)
	w := randMatrix(rng, 64, 48, 0.05)
	x := outlierActivations(rng, 32, 64)
	w8 := Scheme{Bits: 8}
	a8 := Scheme{Bits: 8}

	before := jointQuantError(t, w, x, w8, a8)
	scales, err := SmoothScales(w, x, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ws, xs := applySmoothing(w, x, scales)
	after := jointQuantError(t, ws, xs, w8, a8)
	if after >= before {
		t.Fatalf("smoothing did not reduce W8A8 error: %v → %v", before, after)
	}
	if after > before/2 {
		t.Fatalf("smoothing gain too small with strong outliers: %v → %v", before, after)
	}
}

func TestSmoothScalesFlattenOutliers(t *testing.T) {
	rng := stats.NewRNG(202)
	w := randMatrix(rng, 32, 16, 0.05)
	x := outlierActivations(rng, 16, 32)
	scales, err := SmoothScales(w, x, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Outlier channels (multiples of 16) must get larger scales.
	if scales[0] <= scales[1] || scales[16] <= scales[17] {
		t.Fatalf("outlier channels not scaled up: %v %v %v %v", scales[0], scales[1], scales[16], scales[17])
	}
	// After smoothing, per-channel activation maxima are far flatter.
	_, xs := applySmoothing(w, x, scales)
	ratio := func(m *tensor.Matrix) float64 {
		maxs := make([]float64, m.Cols)
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				v := math.Abs(float64(m.At(r, c)))
				if v > maxs[c] {
					maxs[c] = v
				}
			}
		}
		return slices.Max(maxs) / (slices.Min(maxs) + 1e-12)
	}
	if ratio(xs) >= ratio(x) {
		t.Fatalf("channel max spread not reduced: %v → %v", ratio(x), ratio(xs))
	}
}

func TestSmoothingValidation(t *testing.T) {
	rng := stats.NewRNG(203)
	w := randMatrix(rng, 8, 4, 0.05)
	x := randMatrix(rng, 8, 6, 1) // wrong channel count
	if _, err := SmoothScales(w, x, 0.5); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	x2 := randMatrix(rng, 8, 8, 1)
	if _, err := SmoothScales(w, x2, 0); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	if _, err := SmoothScales(w, x2, 1); err == nil {
		t.Fatal("alpha 1 accepted")
	}
	if _, err := SmoothScales(w, tensor.NewMatrix(0, 8), 0.5); err == nil {
		t.Fatal("empty calibration accepted")
	}
}
