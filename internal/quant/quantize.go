package quant

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// rowGrid is the integer grid one row is quantized on: the scale and
// zero point of the row's value range at the scheme's bitwidth, with
// codes clamped to [−half, maxCode−half] (half is 2^(b−1) for the
// symmetric form and 0 for the asymmetric one).
type rowGrid struct {
	scale, zero   float64
	half, maxCode int64
}

// newRowGrid returns the grid of row under s: ScaleFactor of the row's
// [min, max], with zero point min (0 when symmetric). row must not be
// empty.
func newRowGrid(row []float32, s Scheme) rowGrid {
	minV, maxV := float64(row[0]), float64(row[0])
	for _, v := range row[1:] {
		f := float64(v)
		if f < minV {
			minV = f
		}
		if f > maxV {
			maxV = f
		}
	}
	g := rowGrid{scale: ScaleFactor(minV, maxV, s.Bits, s.Symmetric), zero: minV, maxCode: 1<<s.Bits - 1}
	if s.Symmetric {
		g.zero, g.half = 0, 1<<(s.Bits-1)
	}
	return g
}

// round maps x to its grid point: the code (x−zero)/scale rounded under
// r (0 when the scale is 0), clamped, times the scale plus the zero
// point. Stochastic rounding rounds up with probability equal to the
// fractional part, drawing from rng once per call on a nonzero scale.
// The product is converted before the add, so arm64 does not fuse it.
func (g *rowGrid) round(x float32, r Rounding, rng *stats.RNG) float64 {
	var code int64
	if g.scale != 0 {
		y := (float64(x) - g.zero) / g.scale
		if r == Deterministic {
			code = int64(math.Round(y))
		} else {
			fl := math.Floor(y)
			code = int64(fl)
			if rng.Float64() < y-fl {
				code++
			}
		}
	}
	code = min(max(code+g.half, 0), g.maxCode) - g.half
	return float64(float64(code)*g.scale) + g.zero
}

// QuantDequant fake-quantizes w under scheme s: each row is mapped onto
// its own grid (per-output-channel scales) and written back as floats,
// the Q(W) used to evaluate quality under a scheme. rng supplies
// randomness for stochastic rounding and may be nil for deterministic
// schemes.
func QuantDequant(w *tensor.Matrix, s Scheme, rng *stats.RNG) (*tensor.Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Rounding == Stochastic && rng == nil {
		return nil, fmt.Errorf("quant: stochastic rounding requires an RNG")
	}
	if s.IsIdentity() {
		return w.Clone(), nil
	}
	out := tensor.NewMatrix(w.Rows, w.Cols)
	for r := 0; r < w.Rows; r++ {
		row, dst := w.Row(r), out.Row(r)
		g := newRowGrid(row, s)
		for c, v := range row {
			dst[c] = float32(g.round(v, s.Rounding, rng))
		}
	}
	return out, nil
}

// MSE returns the mean squared reconstruction error between w and its
// quantized form under scheme s — the ||Q(W)-W||² term of §IV-B.
func MSE(w *tensor.Matrix, s Scheme, rng *stats.RNG) (float64, error) {
	dq, err := QuantDequant(w, s, rng)
	if err != nil {
		return 0, err
	}
	var sum float64
	for i := range w.Data {
		d := float64(w.Data[i]) - float64(dq.Data[i])
		sum += d * d
	}
	return sum / float64(len(w.Data)), nil
}
