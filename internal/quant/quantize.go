package quant

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Quantized is a bit-packed quantized matrix together with the per-group
// scales and zero points needed to dequantize it.
type Quantized struct {
	Rows, Cols int
	Scheme     Scheme
	// Values holds the packed integer codes, row-major.
	Values *PackedInts
	// Scales and Zeros hold one entry per scaling group, indexed
	// row-major by (row, group).
	Scales []float64
	Zeros  []float64
	// GroupsPerRow is the number of scaling groups in each row.
	GroupsPerRow int
	// FP16 is set instead of Values when Scheme is the identity.
	FP16 *tensor.Matrix
}

// Bytes returns the storage footprint of the quantized weights,
// including scales and zero points (one float32 each per group, as real
// low-bit kernels store them).
func (q *Quantized) Bytes() int64 {
	if q.FP16 != nil {
		return int64(q.Rows) * int64(q.Cols) * 2
	}
	meta := int64(len(q.Scales)+len(q.Zeros)) * 4
	return q.Values.Bytes() + meta
}

// Quantize converts w to the given scheme. rng supplies randomness for
// stochastic rounding and may be nil for deterministic schemes.
func Quantize(w *tensor.Matrix, s Scheme, rng *stats.RNG) (*Quantized, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Rounding == Stochastic && rng == nil {
		return nil, fmt.Errorf("quant: stochastic rounding requires an RNG")
	}
	if s.IsIdentity() {
		return &Quantized{Rows: w.Rows, Cols: w.Cols, Scheme: s, FP16: w.Clone()}, nil
	}
	gs := s.GroupSize
	if gs <= 0 || gs > w.Cols {
		gs = w.Cols
	}
	groups := (w.Cols + gs - 1) / gs
	q := &Quantized{
		Rows: w.Rows, Cols: w.Cols, Scheme: s,
		Scales:       make([]float64, w.Rows*groups),
		Zeros:        make([]float64, w.Rows*groups),
		GroupsPerRow: groups,
	}
	packer := NewBitPacker(s.Bits)
	maxCode := uint32(1)<<s.Bits - 1
	half := int32(1) << (s.Bits - 1) // symmetric offset so codes stay unsigned
	for r := 0; r < w.Rows; r++ {
		row := w.Row(r)
		for g := 0; g < groups; g++ {
			lo, hi := g*gs, (g+1)*gs
			if hi > len(row) {
				hi = len(row)
			}
			seg := row[lo:hi]
			minV, maxV := float64(seg[0]), float64(seg[0])
			for _, v := range seg[1:] {
				f := float64(v)
				if f < minV {
					minV = f
				}
				if f > maxV {
					maxV = f
				}
			}
			scale := ScaleFactor(minV, maxV, s.Bits, s.Symmetric)
			zero := minV
			if s.Symmetric {
				zero = 0
			}
			gi := r*groups + g
			q.Scales[gi] = scale
			q.Zeros[gi] = zero
			for _, v := range seg {
				var code int64
				if scale == 0 {
					code = 0
				} else {
					x := (float64(v) - zero) / scale
					code = roundValue(x, s.Rounding, rng)
				}
				if s.Symmetric {
					code += int64(half) // shift [-2^(b-1), 2^(b-1)-1] to unsigned
				}
				if code < 0 {
					code = 0
				}
				if code > int64(maxCode) {
					code = int64(maxCode)
				}
				packer.Append(uint32(code))
			}
		}
	}
	q.Values = packer.Finish()
	return q, nil
}

// roundValue applies the scheme's rounding to x.
func roundValue(x float64, r Rounding, rng *stats.RNG) int64 {
	if r == Deterministic {
		return int64(math.Round(x))
	}
	fl := math.Floor(x)
	frac := x - fl
	if rng.Float64() < frac {
		return int64(fl) + 1
	}
	return int64(fl)
}

// Dequantize reconstructs the float matrix from the packed codes.
func (q *Quantized) Dequantize() *tensor.Matrix {
	if q.FP16 != nil {
		return q.FP16.Clone()
	}
	out := tensor.NewMatrix(q.Rows, q.Cols)
	gs := (q.Cols + q.GroupsPerRow - 1) / q.GroupsPerRow
	half := int64(1) << (q.Scheme.Bits - 1)
	idx := 0
	for r := 0; r < q.Rows; r++ {
		row := out.Row(r)
		for g := 0; g < q.GroupsPerRow; g++ {
			lo, hi := g*gs, (g+1)*gs
			if hi > q.Cols {
				hi = q.Cols
			}
			gi := r*q.GroupsPerRow + g
			scale, zero := q.Scales[gi], q.Zeros[gi]
			for c := lo; c < hi; c++ {
				code := int64(q.Values.At(idx))
				idx++
				if q.Scheme.Symmetric {
					code -= half
				}
				row[c] = float32(float64(float64(code)*scale) + zero)
			}
		}
	}
	return out
}

// QuantDequant is the round trip Quantize→Dequantize, the "fake quant"
// operation used to evaluate quality under a scheme.
func QuantDequant(w *tensor.Matrix, s Scheme, rng *stats.RNG) (*tensor.Matrix, error) {
	q, err := Quantize(w, s, rng)
	if err != nil {
		return nil, err
	}
	return q.Dequantize(), nil
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
