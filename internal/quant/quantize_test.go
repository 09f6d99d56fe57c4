package quant

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tensor"
)

func randMatrix(r *stats.RNG, rows, cols int, std float64) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(r.NormMS(0, std))
	}
	return m
}

// maxRowScale returns the largest per-row scale of w under s.
func maxRowScale(w *tensor.Matrix, s Scheme) float64 {
	m := 0.0
	for r := 0; r < w.Rows; r++ {
		m = max(m, newRowGrid(w.Row(r), s).scale)
	}
	return m
}

func TestSchemeValidate(t *testing.T) {
	for _, bits := range []int{3, 4, 8, 16} {
		if err := (Scheme{Bits: bits}).Validate(); err != nil {
			t.Fatalf("bits %d rejected: %v", bits, err)
		}
	}
	for _, bits := range []int{0, 1, 2, 5, 7, 32} {
		if err := (Scheme{Bits: bits}).Validate(); err == nil {
			t.Fatalf("bits %d accepted", bits)
		}
	}
}

func TestScaleFactor(t *testing.T) {
	// Asymmetric: (max-min)/(2^b-1).
	if got := ScaleFactor(-1, 1, 4, false); math.Abs(got-2.0/15) > 1e-12 {
		t.Fatalf("asym scale = %v", got)
	}
	// Symmetric: max(|max|,|min|)/(2^(b-1)-1).
	if got := ScaleFactor(-2, 1, 4, true); math.Abs(got-2.0/7) > 1e-12 {
		t.Fatalf("sym scale = %v", got)
	}
	if got := ScaleFactor(-1, 1, 16, false); got != 0 {
		t.Fatalf("fp16 scale = %v", got)
	}
	if got := ScaleFactor(3, 3, 8, false); got != 0 {
		t.Fatalf("constant-vector scale = %v", got)
	}
}

func TestQuantizeIdentityFP16(t *testing.T) {
	r := stats.NewRNG(1)
	w := randMatrix(r, 4, 8, 1)
	dq, err := QuantDequant(w, FP16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(w, dq) != 0 {
		t.Fatal("FP16 scheme altered weights")
	}
}

func TestQuantizeRoundTripError(t *testing.T) {
	r := stats.NewRNG(2)
	w := randMatrix(r, 16, 64, 0.02)
	// More bits → lower error, for both symmetric and asymmetric.
	for _, sym := range []bool{false, true} {
		var prev float64 = math.Inf(1)
		for _, bits := range []int{8, 4, 3} {
			mse, err := MSE(w, Scheme{Bits: bits, Symmetric: sym}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if bits == 8 && mse == 0 {
				t.Fatal("int8 error exactly zero is implausible")
			}
			_ = prev
			prev = mse
		}
		mse8, _ := MSE(w, Scheme{Bits: 8, Symmetric: sym}, nil)
		mse3, _ := MSE(w, Scheme{Bits: 3, Symmetric: sym}, nil)
		if mse8 >= mse3 {
			t.Fatalf("sym=%v: int8 MSE %v >= int3 MSE %v", sym, mse8, mse3)
		}
	}
}

func TestQuantizeBoundedError(t *testing.T) {
	// Deterministic asymmetric round-trip error is bounded by scale/2 per
	// element (half a quantization step).
	r := stats.NewRNG(3)
	w := randMatrix(r, 8, 32, 0.05)
	s := Scheme{Bits: 4}
	dq, err := QuantDequant(w, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxScale := maxRowScale(w, s)
	if d := tensor.MaxAbsDiff(w, dq); d > maxScale/2+1e-6 {
		t.Fatalf("max error %v exceeds half-step %v", d, maxScale/2)
	}
}

func TestStochasticRequiresRNG(t *testing.T) {
	w := tensor.NewMatrix(1, 4)
	if _, err := QuantDequant(w, Scheme{Bits: 4, Rounding: Stochastic}, nil); err == nil {
		t.Fatal("stochastic without RNG accepted")
	}
}

func TestStochasticUnbiased(t *testing.T) {
	// Quantizing the same value many times with stochastic rounding should
	// average back to roughly the original value.
	r := stats.NewRNG(4)
	w := tensor.FromSlice(1, 2, []float32{0.31, -0.77})
	var sum0, sum1 float64
	n := 3000
	for i := 0; i < n; i++ {
		dq, err := QuantDequant(w, Scheme{Bits: 3, Rounding: Stochastic}, r)
		if err != nil {
			t.Fatal(err)
		}
		sum0 += float64(dq.Data[0])
		sum1 += float64(dq.Data[1])
	}
	if math.Abs(sum0/float64(n)-0.31) > 0.02 || math.Abs(sum1/float64(n)+0.77) > 0.02 {
		t.Fatalf("stochastic bias: means %v %v", sum0/float64(n), sum1/float64(n))
	}
}

func TestQuantizeRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		rows, cols := r.IntRange(1, 12), r.IntRange(1, 40)
		w := randMatrix(r, rows, cols, 0.1)
		bits := []int{3, 4, 8}[r.Intn(3)]
		sym := r.Intn(2) == 0
		s := Scheme{Bits: bits, Symmetric: sym}
		dq, err := QuantDequant(w, s, nil)
		if err != nil {
			return false
		}
		// Error must be bounded by the largest scale step.
		return tensor.MaxAbsDiff(w, dq) <= maxRowScale(w, s)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refQuantized is the packed form the fake quantizer replaced: codes
// bit-packed row-major, with one scale and zero point per row.
type refQuantized struct {
	rows, cols   int
	scheme       Scheme
	values       *packedInts
	scales, zero []float64
}

// refQuantize is the quantizer QuantDequant replaced, one scaling group
// per row: it rounds each element to an unsigned code and packs it.
func refQuantize(w *tensor.Matrix, s Scheme, rng *stats.RNG) *refQuantized {
	q := &refQuantized{rows: w.Rows, cols: w.Cols, scheme: s,
		scales: make([]float64, w.Rows), zero: make([]float64, w.Rows)}
	packer := newBitPacker(s.Bits)
	maxCode := uint32(1)<<s.Bits - 1
	half := int32(1) << (s.Bits - 1) // symmetric offset so codes stay unsigned
	for r := 0; r < w.Rows; r++ {
		row := w.Row(r)
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
		scale := ScaleFactor(minV, maxV, s.Bits, s.Symmetric)
		zero := minV
		if s.Symmetric {
			zero = 0
		}
		q.scales[r], q.zero[r] = scale, zero
		for _, v := range row {
			var code int64
			if scale != 0 {
				x := (float64(v) - zero) / scale
				if s.Rounding == Deterministic {
					code = int64(math.Round(x))
				} else {
					fl := math.Floor(x)
					code = int64(fl)
					if rng.Float64() < x-fl {
						code++
					}
				}
			}
			if s.Symmetric {
				code += int64(half)
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
	q.values = packer.Finish()
	return q
}

// dequantize reconstructs the float matrix from the packed codes.
func (q *refQuantized) dequantize() *tensor.Matrix {
	out := tensor.NewMatrix(q.rows, q.cols)
	half := int64(1) << (q.scheme.Bits - 1)
	idx := 0
	for r := 0; r < q.rows; r++ {
		row := out.Row(r)
		for c := range row {
			code := int64(q.values.At(idx))
			idx++
			if q.scheme.Symmetric {
				code -= half
			}
			row[c] = float32(float64(float64(code)*q.scales[r]) + q.zero[r])
		}
	}
	return out
}

// float32Bytes encodes vs as the little-endian bit patterns
// FuzzQuantDequant reads.
func float32Bytes(vs ...float32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// FuzzQuantDequant checks QuantDequant against the packed round trip it
// replaced, refQuantize then dequantize, bit for bit on fuzzed float32
// bit patterns at 3, 4 and 8 bits, in both forms and under both
// roundings. Stochastic runs draw from two RNGs with the same seed,
// which must end in the same state.
func FuzzQuantDequant(f *testing.F) {
	negZero := float32(math.Copysign(0, -1))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	f.Add(float32Bytes(0.31, -0.77, 0.05, 0.9, -0.2, 0.4), uint8(2), uint8(0), false, false, uint64(1))
	f.Add(float32Bytes(0.31, -0.77, 0.05, 0.9, -0.2, 0.4), uint8(5), uint8(1), true, true, uint64(7))
	f.Add(float32Bytes(negZero, 0, 0, 0, 0.5, 0.5, 0.5, 0.5), uint8(3), uint8(2), false, false, uint64(0))
	f.Add(float32Bytes(negZero, 0, 0, 0, 0, 0, 0, 0), uint8(3), uint8(0), true, true, uint64(3))
	f.Add(float32Bytes(1e30, -1e30, 3, inf, 2, nan, -inf, 1), uint8(1), uint8(0), false, true, uint64(9))
	f.Fuzz(func(t *testing.T, data []byte, cols, bitSel uint8, sym, stoch bool, seed uint64) {
		c := int(cols)%16 + 1
		rows := len(data) / 4 / c
		if rows == 0 {
			return
		}
		w := tensor.NewMatrix(rows, c)
		for i := range w.Data {
			w.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		s := Scheme{Bits: []int{3, 4, 8}[bitSel%3], Symmetric: sym}
		var rng, refRNG *stats.RNG
		if stoch {
			s.Rounding = Stochastic
			rng, refRNG = stats.NewRNG(seed), stats.NewRNG(seed)
		}
		got, err := QuantDequant(w, s, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := refQuantize(w, s, refRNG).dequantize()
		for i, v := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
				t.Fatalf("%v: element %d of %v: got %v (%#x), want %v (%#x)",
					s, i, w.Data, got.Data[i], math.Float32bits(got.Data[i]), v, math.Float32bits(v))
			}
		}
		if stoch && rng.Uint64() != refRNG.Uint64() {
			t.Fatalf("%v: the two RNGs drew a different number of values", s)
		}
	})
}
