package quant

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Operator is one linear operator inside a decoder layer: its FP16 weight
// matrix W (out × in) and a calibration input X (samples × in) drawn from
// a small set of data points run through the network, as in GPTQ.
type Operator struct {
	Name string
	W    *tensor.Matrix
	X    *tensor.Matrix
}

// LayerCalibration holds the calibration state for all linear operators
// of one decoder layer (attention projections and MLP matrices).
type LayerCalibration struct {
	Ops []Operator
}

// GX computes G(X) from Proposition 1: Var[X]/4 for deterministic
// rounding, (E[X]² + Var[X])/6 for stochastic rounding. Mean and variance
// are elementwise over the calibration tensor, which is what makes the
// indicator O(D_W·D_X) instead of the Hessian's O(D_W·D_X²).
func GX(x *tensor.Matrix, r Rounding) float64 {
	n := len(x.Data)
	if n == 0 {
		return 0
	}
	var mean float64
	for _, v := range x.Data {
		mean += float64(v)
	}
	mean /= float64(n)
	var varr float64
	for _, v := range x.Data {
		d := float64(v) - mean
		varr += d * d
	}
	varr /= float64(n)
	if r == Deterministic {
		return varr / 4
	}
	return (mean*mean + varr) / 6
}

// meanRowScaleSq returns the mean of the squared per-row scaling factors
// of w at the given bitwidth. Per-row (per-output-channel) scaling is
// what the quantizer in this package actually applies, so Theorem 1's
// D_W·S_W² term is evaluated as D_W·mean_rows(S_row²) — still an
// elementwise-cost computation.
func meanRowScaleSq(w *tensor.Matrix, bits int, symmetric bool) float64 {
	if w.Rows == 0 || w.Cols == 0 {
		return 0
	}
	scheme := Scheme{Bits: bits, Symmetric: symmetric}
	total := 0.0
	for r := 0; r < w.Rows; r++ {
		s := newRowGrid(w.Row(r), scheme).scale
		total += s * s
	}
	return total / float64(w.Rows)
}

// VarianceIndicator computes ω_{i,b} of Proposition 1 for one layer:
//
//	ω = Σ_o D_{W_o} · S_{W_o}(b)² · G(X_o)
//
// with S² evaluated per output row to match the per-row quantizer. It is
// the paper's cheap quantization-sensitivity measure; FP16 (bits ≥ 16)
// has zero indicated degradation.
func VarianceIndicator(layer LayerCalibration, bits int, symmetric bool, rounding Rounding) float64 {
	if bits >= 16 {
		return 0
	}
	total := 0.0
	for _, op := range layer.Ops {
		s2 := meanRowScaleSq(op.W, bits, symmetric)
		d := float64(op.W.Rows * op.W.Cols)
		total += d * s2 * GX(op.X, rounding)
	}
	return total
}

// IndicatorFromStats computes the same quantity from summary statistics
// alone (weight dimension and range, input mean and variance), matching
// the observation that only elementwise moments are needed. It lets the
// planner score layers of models far too large to materialize.
func IndicatorFromStats(dW int, wMin, wMax, meanX, varX float64, bits int, symmetric bool, rounding Rounding) float64 {
	if bits >= 16 {
		return 0
	}
	s := ScaleFactor(wMin, wMax, bits, symmetric)
	var g float64
	if rounding == Deterministic {
		g = varX / 4
	} else {
		g = (meanX*meanX + varX) / 6
	}
	return float64(dW) * s * s * g
}

// HessianIndicator computes the HAWQ-style sensitivity the paper compares
// against: ω = λ·||Q(W)−W||², where λ is the top eigenvalue of the loss
// Hessian H = 2·XᵀX, obtained matrix-free by power iteration (iters
// rounds). It is far more expensive than the variance indicator — the
// point of Table V.
func HessianIndicator(layer LayerCalibration, bits int, symmetric bool, rounding Rounding, rng *stats.RNG, iters int) (float64, error) {
	if bits >= 16 {
		return 0, nil
	}
	if iters <= 0 {
		iters = 30
	}
	total := 0.0
	for _, op := range layer.Ops {
		lambda := topEigenGram(op.X, rng, iters)
		mse, err := MSE(op.W, Scheme{Bits: bits, Symmetric: symmetric, Rounding: rounding}, rng)
		if err != nil {
			return 0, fmt.Errorf("quant: hessian indicator for %s: %w", op.Name, err)
		}
		// MSE is per-element; restore the summed ||·||² form.
		total += lambda * mse * float64(op.W.Rows*op.W.Cols)
	}
	return total, nil
}

// topEigenGram returns the largest eigenvalue of 2·XᵀX by power
// iteration, computing XᵀX·v as Xᵀ(X·v) so the d×d Gram matrix is never
// materialized.
func topEigenGram(x *tensor.Matrix, rng *stats.RNG, iters int) float64 {
	d := x.Cols
	if d == 0 || x.Rows == 0 {
		return 0
	}
	v := make([]float64, d)
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	for i := range v {
		v[i] = rng.NormMS(0, 1)
	}
	normalize(v)
	var lambda float64
	xv := make([]float64, x.Rows)
	nv := make([]float64, d)
	for it := 0; it < iters; it++ {
		// xv = X·v
		for r := 0; r < x.Rows; r++ {
			row := x.Row(r)
			s := 0.0
			for c, w := range row {
				s += float64(w) * v[c]
			}
			xv[r] = s
		}
		// nv = Xᵀ·xv
		for c := range nv {
			nv[c] = 0
		}
		for r := 0; r < x.Rows; r++ {
			row := x.Row(r)
			f := xv[r]
			for c, w := range row {
				nv[c] += float64(w) * f
			}
		}
		lambda = normalize(nv)
		copy(v, nv)
	}
	return 2 * lambda
}

// normalize scales v to unit length and returns its prior norm.
func normalize(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	n := math.Sqrt(s)
	if n == 0 {
		return 0
	}
	for i := range v {
		v[i] /= n
	}
	return n
}

// RandomIndicator draws a uniform sensitivity per (layer, bits) pair but
// forces monotonicity within each layer — higher bitwidths never indicate
// more degradation than lower ones — matching the Table V baseline.
func RandomIndicator(rng *stats.RNG, layers int, bits []int) [][]float64 {
	sortedBits := append([]int(nil), bits...)
	sort.Ints(sortedBits)
	out := make([][]float64, layers)
	for l := range out {
		vals := make([]float64, len(bits))
		for i := range vals {
			vals[i] = rng.Float64()
		}
		// Descending in bit order: lowest bits get the largest value.
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		byBits := make(map[int]float64, len(bits))
		for i, b := range sortedBits {
			if b >= 16 {
				byBits[b] = 0
			} else {
				byBits[b] = vals[i]
			}
		}
		row := make([]float64, len(bits))
		for i, b := range bits {
			row[i] = byBits[b]
		}
		out[l] = row
	}
	return out
}
