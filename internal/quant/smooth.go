package quant

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SmoothQuant-style activation smoothing (Xiao et al.), one of the
// weight-activation schemes the paper integrates: activation outliers
// concentrate in a few input channels, which makes W8A8 quantization of
// X lossy; a per-channel rescaling
//
//	X'_j = X_j / s_j,   W'_{j,·} = s_j · W_{j,·},   s_j = max|X_j|^α / max|W_j|^(1−α)
//
// migrates the difficulty from activations into weights while keeping
// the product X·W mathematically unchanged, so both tensors quantize
// well afterwards.

// SmoothScales computes the per-input-channel migration factors for a
// linear operator with weights w (in × out, input-major as used by
// tinyllm) and calibration activations x (samples × in). alpha in (0, 1)
// balances the migration (0.5 is the paper default).
func SmoothScales(w, x *tensor.Matrix, alpha float64) ([]float64, error) {
	if w.Rows != x.Cols {
		return nil, fmt.Errorf("quant: smoothing shape mismatch: weights have %d inputs, activations %d channels", w.Rows, x.Cols)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("quant: smoothing alpha %v outside (0,1)", alpha)
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("quant: smoothing needs calibration samples")
	}
	in := w.Rows
	scales := make([]float64, in)
	for j := 0; j < in; j++ {
		var maxX float64
		for r := 0; r < x.Rows; r++ {
			v := math.Abs(float64(x.At(r, j)))
			if v > maxX {
				maxX = v
			}
		}
		var maxW float64
		row := w.Row(j)
		for _, v := range row {
			a := math.Abs(float64(v))
			if a > maxW {
				maxW = a
			}
		}
		if maxX == 0 || maxW == 0 {
			scales[j] = 1
			continue
		}
		s := math.Pow(maxX, alpha) / math.Pow(maxW, 1-alpha)
		if s < 1e-5 {
			s = 1e-5
		}
		scales[j] = s
	}
	return scales, nil
}
