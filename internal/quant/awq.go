package quant

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// AWQ-style activation-aware weight scaling (Lin et al.), the third
// quantization scheme SplitQuant integrates: a small fraction of weight
// channels is salient because their *inputs* are large, and protecting
// them matters more than minimizing average rounding error. AWQ scales
// each input channel j by s_j ∝ mean|X_j|^α before quantization and
// divides it back afterwards, so salient channels land on a finer
// effective grid without keeping any weight in FP16.

// awqAlpha is the saliency exponent α.
const awqAlpha = 0.5

// AWQQuantize fake-quantizes w (in × out, input-major) to the scheme
// using calibration activations x (samples × in): channels are scaled by
// activation saliency, quantized per output column group... the scaling
// is undone after rounding, so the result stays a drop-in replacement
// for w.
func AWQQuantize(w, x *tensor.Matrix, s Scheme) (*tensor.Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.IsIdentity() {
		return w.Clone(), nil
	}
	if x.Cols != w.Rows {
		return nil, fmt.Errorf("quant: AWQ calibration has %d channels, weights have %d inputs", x.Cols, w.Rows)
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("quant: AWQ needs calibration samples")
	}
	in := w.Rows
	// Per-channel saliency: mean absolute activation.
	sal := make([]float64, in)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for j, v := range row {
			sal[j] += math.Abs(float64(v))
		}
	}
	var geoSum float64
	for j := range sal {
		sal[j] /= float64(x.Rows)
		if sal[j] < 1e-8 {
			sal[j] = 1e-8
		}
		geoSum += math.Log(sal[j])
	}
	// Normalize scales around 1 so the overall weight range is stable.
	geoMean := math.Exp(geoSum / float64(in))
	scales := make([]float64, in)
	for j := range scales {
		scales[j] = math.Pow(sal[j]/geoMean, awqAlpha)
	}
	// Scale, quantize (per output-column rows after transpose — our
	// quantizer scales per row of its input, so transpose to put output
	// channels on rows, as real AWQ kernels group), unscale.
	scaled := w.Clone()
	for j := 0; j < in; j++ {
		row := scaled.Row(j)
		f := float32(scales[j])
		for c := range row {
			row[c] *= f
		}
	}
	dq, err := QuantDequant(scaled.Transpose(), s, nil)
	if err != nil {
		return nil, err
	}
	out := dq.Transpose()
	for j := 0; j < in; j++ {
		row := out.Row(j)
		f := float32(scales[j])
		for c := range row {
			row[c] /= f
		}
	}
	return out, nil
}

// WeightedReconError returns the activation-weighted reconstruction
// error ‖(W − Ŵ)·diag(E|X|)‖²/n — the saliency-aware metric AWQ
// minimizes (plain MSE treats all channels equally).
func WeightedReconError(w, wq, x *tensor.Matrix) (float64, error) {
	if w.Rows != wq.Rows || w.Cols != wq.Cols {
		return 0, fmt.Errorf("quant: shape mismatch %dx%d vs %dx%d", w.Rows, w.Cols, wq.Rows, wq.Cols)
	}
	if x.Cols != w.Rows || x.Rows == 0 {
		return 0, fmt.Errorf("quant: calibration shape mismatch")
	}
	sal := make([]float64, w.Rows)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for j, v := range row {
			sal[j] += math.Abs(float64(v))
		}
	}
	for j := range sal {
		sal[j] /= float64(x.Rows)
	}
	var sum float64
	for j := 0; j < w.Rows; j++ {
		a, b := w.Row(j), wq.Row(j)
		for c := range a {
			d := float64(a[c]-b[c]) * sal[j]
			sum += d * d
		}
	}
	return sum / float64(w.Rows*w.Cols), nil
}
