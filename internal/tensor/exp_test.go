package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// geluRef is GELU's scalar loop as it stood before the vector kernel:
// the reference GELU must equal bit for bit.
func geluRef(xs []float32) {
	const c0 = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range xs {
		x := float64(v)
		xs[i] = float32(0.5 * x * (1 + math.Tanh(c0*(x+float64(0.044715*x*x*x)))))
	}
}

// softmaxRef is SoftmaxRow as it stood before the vector kernel.
func softmaxRef(xs []float32) {
	if len(xs) == 0 {
		return
	}
	mx := xs[0]
	for _, v := range xs[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range xs {
		e := math.Exp(float64(v - mx))
		xs[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range xs {
		xs[i] *= inv
	}
}

// checkGELU runs GELU and geluRef over copies of xs and fails on the
// first element whose bits differ.
func checkGELU(t testing.TB, xs []float32) {
	t.Helper()
	got := append([]float32(nil), xs...)
	want := append([]float32(nil), xs...)
	GELU(FromSlice(1, len(got), got))
	geluRef(want)
	if i := firstSliceBitDiff(got, want); i >= 0 {
		t.Fatalf("GELU(%v) (bits %#08x) = %v, scalar loop %v", xs[i], math.Float32bits(xs[i]), got[i], want[i])
	}
}

// checkSoftmax runs SoftmaxRow and softmaxRef over copies of xs and
// fails on the first element whose bits differ.
func checkSoftmax(t testing.TB, xs []float32) {
	t.Helper()
	got := append([]float32(nil), xs...)
	want := append([]float32(nil), xs...)
	SoftmaxRow(got)
	softmaxRef(want)
	if i := firstSliceBitDiff(got, want); i >= 0 {
		t.Fatalf("SoftmaxRow of %d inputs: element %d (input %v) = %v, scalar loop %v", len(xs), i, xs[i], got[i], want[i])
	}
}

// geluY is the argument GELU passes to math.Tanh.
func geluY(x float32) float64 {
	const c0 = 0.7978845608028654
	v := float64(x)
	return c0 * (v + float64(0.044715*v*v*v))
}

// geluEdges returns, for each of math.Tanh's branch points |y| = 0.625
// and |y| = 0.5·MAXLOG, the positive float32 inputs one ulp either side
// of the crossing and their negations. |y| grows with |x|, so a binary
// search over the bit patterns of positive floats finds each crossing.
func geluEdges() []float32 {
	const maxLog = 8.8029691931113054295988e+01
	var out []float32
	for _, th := range []float64{0.625, 0.5 * maxLog} {
		lo, hi := uint32(0), math.Float32bits(float32(math.Inf(1)))
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if geluY(math.Float32frombits(mid)) > th {
				hi = mid
			} else {
				lo = mid
			}
		}
		for _, b := range []uint32{lo - 1, lo, hi, hi + 1} {
			x := math.Float32frombits(b)
			out = append(out, x, -x)
		}
	}
	return out
}

// geluSpecials are the inputs every GELU check includes: ±0, ±the
// smallest subnormal, ±Inf, NaN and the branch edges.
func geluSpecials() []float32 {
	tiny := math.Float32frombits(1)
	inf := float32(math.Inf(1))
	return append([]float32{0, float32(math.Copysign(0, -1)), tiny, -tiny, inf, -inf, float32(math.NaN())}, geluEdges()...)
}

// sweepGELU checks GELU against geluRef on every stride-th float32 bit
// pattern, in rows of 4096.
func sweepGELU(t *testing.T, stride uint64) {
	row := make([]float32, 0, 4096)
	flush := func() {
		checkGELU(t, row)
		row = row[:0]
	}
	for b := uint64(0); b < 1<<32; b += stride {
		row = append(row, math.Float32frombits(uint32(b)))
		if len(row) == cap(row) {
			flush()
		}
	}
	flush()
}

// TestGELUMatchesScalarSweep checks GELU against the scalar loop on
// every 65 521st float32 bit pattern, on the special inputs and branch
// edges, and on tails of length 1–3 after a whole group, so the vector
// kernel, the groups it declines and the len%4 tail are all compared.
func TestGELUMatchesScalarSweep(t *testing.T) {
	sweepGELU(t, 65521)
	sp := geluSpecials()
	checkGELU(t, sp)
	for _, x := range sp {
		// x alone in a group of four, and in each tail length.
		checkGELU(t, []float32{0.5, -1, 2, x})
		for n := 1; n <= 3; n++ {
			row := []float32{0.25, -0.75, 1.5, -3, x, x, x}[:4+n]
			checkGELU(t, row)
		}
	}
}

// TestSoftmaxMatchesScalar checks SoftmaxRow against the scalar loop on
// rows of every length to 19, with shifted inputs that cross −708, and
// with ±Inf and NaN.
func TestSoftmaxMatchesScalar(t *testing.T) {
	r := stats.NewRNG(11)
	inf := float32(math.Inf(1))
	for n := 1; n <= 19; n++ {
		for _, sd := range []float64{1, 30, 400} {
			row := make([]float32, n)
			for i := range row {
				row[i] = float32(r.NormMS(0, sd))
			}
			checkSoftmax(t, row)
		}
	}
	for _, row := range softmaxSeeds() {
		checkSoftmax(t, row)
	}
	checkSoftmax(t, []float32{1, 2, 3, 4, -inf, 5, 6, 7})
	checkSoftmax(t, []float32{1, 2, 3, 4, 5, 6, inf, 7})
	checkSoftmax(t, []float32{1, 2, 3, 4, 5, 6, float32(math.NaN()), 7})
	checkSoftmax(t, []float32{float32(math.NaN()), 2, 3, 4, 5, 6, 7, 8})
}

// softmaxSeeds are rows whose shifted inputs sit on either side of −708,
// where the vector exp hands a group to the scalar loop.
func softmaxSeeds() [][]float32 {
	return [][]float32{
		{0, -1, -2, -3, -707.9, -708, -708.01, -709, -745, -746, -800, 1},
		{5, -702.9, -703, -703.1, 0, 1, 2, 3, 4},
		{-708, 0, -708, 0, -708, 0, -708, 0},
		{100, -700, -609, -608, -607, 0, 0, 0, 0},
	}
}

func float32Bytes(xs []float32) []byte {
	b := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	return b
}

// FuzzGELUBitExact runs fuzzed float32 bit patterns through GELU and
// SoftmaxRow and checks each against the scalar loop it replaced, by
// Float32bits with any two NaNs equal. The softmax gets the patterns as
// one row and, so the vector exp sees mostly in-range arguments, as a
// second row of their top 16 bits read as an int16 over 64.
func FuzzGELUBitExact(f *testing.F) {
	f.Add(float32Bytes(geluSpecials()))
	for _, row := range softmaxSeeds() {
		f.Add(float32Bytes(row))
	}
	f.Add(float32Bytes([]float32{0.1, -0.2, 0.3, -0.4, 0.5, 1, 2, 3, 4, -5, 6}))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float32, len(data)/4)
		small := make([]float32, len(xs))
		for i := range xs {
			b := binary.LittleEndian.Uint32(data[4*i:])
			xs[i] = math.Float32frombits(b)
			small[i] = float32(int16(b>>16)) / 64
		}
		checkGELU(t, xs)
		checkSoftmax(t, xs)
		checkSoftmax(t, small)
	})
}

// BenchmarkGELU times GELU over the stage-chain model's MLP activations:
// one decode row and a 43-row prefill of FFN width 192.
func BenchmarkGELU(b *testing.B) {
	for _, rows := range []int{1, 43} {
		b.Run(fmt.Sprintf("%dx192", rows), func(b *testing.B) {
			r := stats.NewRNG(1)
			src := randMatrix(r, rows, 192)
			m := src.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(m.Data, src.Data)
				GELU(m)
			}
		})
	}
}

// TestExpKernelsTakeInRangeGroups guards the comparisons above against a
// kernel that declines every group, which would leave only the scalar
// loops to compare: where useFMA is set, both kernels must take whole
// in-range groups and stop at the first group they must decline.
func TestExpKernelsTakeInRangeGroups(t *testing.T) {
	if !useFMA {
		t.Skip("no AVX2+FMA kernels on this CPU")
	}
	nan := float32(math.NaN())
	row := []float32{-3, -1, 0.5, 2, 0.1, 0.7, -0.7, 4, 1, 2, nan, 4, 5}
	if n := geluAVX2(append([]float32(nil), row...)); n != 8 {
		t.Fatalf("geluAVX2 did %d elements, want 8", n)
	}
	row[2] = -800
	if n, _ := softmaxExpAVX2(append([]float32(nil), row...), 5, 0); n != 0 {
		t.Fatalf("softmaxExpAVX2 with an argument below -708 did %d elements, want 0", n)
	}
	row[2] = 0.5
	if n, _ := softmaxExpAVX2(append([]float32(nil), row...), 5, 0); n != 8 {
		t.Fatalf("softmaxExpAVX2 did %d elements, want 8", n)
	}
}

// TestSoftmaxExpMatchesMathExp checks the vector exp in float64, before
// any rounding to float32 can hide a difference: a group holding one
// argument x ∈ [−600, 88] and three of −700 returns a sum of exactly
// exp(x), since the other three exponentials are below half an ulp of
// it. x runs over every 997th float32 in that range, in each lane.
func TestSoftmaxExpMatchesMathExp(t *testing.T) {
	if !useFMA {
		t.Skip("no AVX2+FMA kernels on this CPU")
	}
	check := func(x float32) {
		for lane := 0; lane < 4; lane++ {
			g := []float32{-700, -700, -700, -700}
			g[lane] = x
			n, sum := softmaxExpAVX2(g, 0, 0)
			if want := math.Exp(float64(x)); n != 4 || math.Float64bits(sum) != math.Float64bits(want) {
				t.Fatalf("exp(%v) in lane %d: kernel %v (%d done), math.Exp %v", x, lane, sum, n, want)
			}
		}
	}
	for b := uint32(0); math.Float32frombits(b) <= 88; b += 997 {
		check(math.Float32frombits(b))
	}
	for b := uint32(1 << 31); math.Float32frombits(b) >= -600; b += 997 {
		check(math.Float32frombits(b))
	}
}
