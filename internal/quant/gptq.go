package quant

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// GPTQ implements the calibrated, error-compensating weight quantizer of
// Frantar et al. that the paper adopts for its weight-only kernels: each
// weight row is quantized column by column in order, and after each
// column the incurred quantization error is propagated into the not-yet-
// quantized columns using the inverse Hessian H⁻¹ of the layerwise
// reconstruction loss L = ||WX − ŴX||², with H = 2XᵀX + λI.
//
// Compared to round-to-nearest (Quantize), GPTQ trades extra offline
// compute for lower task degradation at the same bitwidth — measurably
// so on the tinyllm backend (see tests), mirroring the role it plays in
// the paper's serving stack.

// GPTQOptions configures a GPTQ run.
type GPTQOptions struct {
	// ActOrder quantizes columns in order of decreasing Hessian diagonal
	// (the reference implementation's "desc_act" heuristic), which
	// markedly improves very-low-bit quality.
	ActOrder bool
}

// gptqDamp is the relative diagonal damping: λ = gptqDamp·mean(diag(H)),
// as in the reference implementation.
const gptqDamp = 0.01

// GPTQQuantize fake-quantizes w (out × in) to the scheme using the
// calibration inputs x (samples × in). Only deterministic rounding is
// supported (stochastic rounding defeats error compensation). Per-row
// asymmetric or symmetric scaling follows the scheme.
func GPTQQuantize(w, x *tensor.Matrix, s Scheme, opts GPTQOptions) (*tensor.Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.IsIdentity() {
		return w.Clone(), nil
	}
	if s.Rounding != Deterministic {
		return nil, fmt.Errorf("quant: GPTQ requires deterministic rounding")
	}
	if x.Cols != w.Cols {
		return nil, fmt.Errorf("quant: GPTQ calibration has %d features, weights have %d inputs", x.Cols, w.Cols)
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("quant: GPTQ needs calibration samples")
	}
	d := w.Cols

	// H = 2·XᵀX + λI.
	h := make([][]float64, d)
	for i := range h {
		h[i] = make([]float64, d)
	}
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for i := 0; i < d; i++ {
			xi := float64(row[i])
			if xi == 0 {
				continue
			}
			hi := h[i]
			for j := i; j < d; j++ {
				hi[j] += 2 * xi * float64(row[j])
			}
		}
	}
	var trace float64
	for i := 0; i < d; i++ {
		trace += h[i][i]
	}
	lambda := gptqDamp * trace / float64(d)
	if lambda <= 0 {
		lambda = 1e-8
	}
	for i := 0; i < d; i++ {
		h[i][i] += lambda
		for j := 0; j < i; j++ {
			h[i][j] = h[j][i]
		}
	}

	// Column processing order: natural, or by decreasing Hessian
	// diagonal (act-order). perm[k] = original column processed k-th.
	perm := make([]int, d)
	for i := range perm {
		perm[i] = i
	}
	if opts.ActOrder {
		for i := 1; i < d; i++ {
			for j := i; j > 0 && h[perm[j]][perm[j]] > h[perm[j-1]][perm[j-1]]; j-- {
				perm[j], perm[j-1] = perm[j-1], perm[j]
			}
		}
	}
	// Permute H accordingly so the recursion below runs in processing
	// order over contiguous indices.
	hp := make([][]float64, d)
	for i := 0; i < d; i++ {
		hp[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			hp[i][j] = h[perm[i]][perm[j]]
		}
	}
	hInv, err := invertSPD(hp)
	if err != nil {
		return nil, fmt.Errorf("quant: GPTQ hessian inversion: %w", err)
	}

	out := w.Clone()
	for r := 0; r < out.Rows; r++ {
		row := out.Row(r)
		// Per-row grid from the original (pre-compensation) weights, as
		// real GPTQ kernels do.
		g := newRowGrid(row, s)
		for k := 0; k < d; k++ {
			c := perm[k]
			orig := float64(row[c])
			q := g.round(row[c], Deterministic, nil)
			err := (orig - q) / hInv[k][k]
			row[c] = float32(q)
			// Propagate the error into the not-yet-quantized columns.
			for j := k + 1; j < d; j++ {
				row[perm[j]] -= float32(err * hInv[k][j])
			}
		}
	}
	return out, nil
}

// invertSPD inverts a symmetric positive-definite matrix via Cholesky.
func invertSPD(a [][]float64) ([][]float64, error) {
	n := len(a)
	// Cholesky: a = L·Lᵀ.
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("matrix not positive definite at %d (%v)", i, sum)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	// Invert L (lower triangular).
	inv := make([][]float64, n)
	for i := range inv {
		inv[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		inv[i][i] = 1 / l[i][i]
		for j := 0; j < i; j++ {
			var sum float64
			for k := j; k < i; k++ {
				sum -= l[i][k] * inv[k][j]
			}
			inv[i][j] = sum / l[i][i]
		}
	}
	// a⁻¹ = L⁻ᵀ · L⁻¹.
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			k0 := i
			if j > k0 {
				k0 = j
			}
			for k := k0; k < n; k++ {
				sum += inv[k][i] * inv[k][j]
			}
			out[i][j] = sum
		}
	}
	return out, nil
}
