package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := stats.NewRNG(1)
	a := NewMatrix(5, 5)
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
		for j := 0; j < 5; j++ {
			a.Set(i, j, float32(r.NormMS(0, 1)))
		}
	}
	c := MatMul(a, id)
	if MaxAbsDiff(a, c) != 0 {
		t.Fatal("A·I != A")
	}
}

// kernels lists the values of useAVX2 this machine can run: the Go kernel
// always, the AVX2 kernel where the CPU has it.
func kernels() []bool {
	if cpuHasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

func kernelName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// useKernel sets useAVX2 to avx2 and restores it when t ends.
func useKernel(t testing.TB, avx2 bool) {
	prev := useAVX2
	useAVX2 = avx2
	t.Cleanup(func() { useAVX2 = prev })
}

func randMatrix(r *stats.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(r.NormMS(0, 1))
	}
	return m
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Big enough to trip the parallel path.
	r := stats.NewRNG(2)
	a, b := randMatrix(r, 128, 96), randMatrix(r, 96, 64)
	want := matMulOracle(a, b)
	for _, avx2 := range kernels() {
		t.Run(kernelName(avx2), func(t *testing.T) {
			useKernel(t, avx2)
			par := MatMul(a, b)
			ser := NewMatrix(a.Rows, b.Cols)
			matMulRange(a, b, ser, 0, a.Rows)
			if i := firstBitDiff(par, want); i >= 0 {
				t.Fatalf("parallel and oracle differ at %d: %v vs %v", i, par.Data[i], want.Data[i])
			}
			if i := firstBitDiff(ser, want); i >= 0 {
				t.Fatalf("serial and oracle differ at %d: %v vs %v", i, ser.Data[i], want.Data[i])
			}
		})
	}
}

// matMulOracle is the textbook ikj product: each output element summed
// from zero over k in ascending order, skipping zero entries of a, with
// each product rounded to float32 before the add. The kernels must
// reproduce it bit for bit.
func matMulOracle(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		or := out.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				or[j] += float32(av * bv)
			}
		}
	}
	return out
}

// firstBitDiff returns the first index at which got and want differ in
// their bits (any two NaNs count as equal), or -1.
func firstBitDiff(got, want *Matrix) int {
	for i, g := range got.Data {
		w := want.Data[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// FuzzMatMulBitExact checks MatMul with each kernel against matMulOracle
// bit for bit on shapes with column counts that are not multiples of the
// kernel's tiles, shapes large enough for the parallel row split, and
// inputs seeded with zeros, negative zeros, infinities and NaNs. The
// seeds' column counts reach the AVX2 kernel's 64- and 8-column blocks
// and the remainder loop together (75), the remainder alone (7) and
// 64-column blocks alone (192).
func FuzzMatMulBitExact(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5), uint8(7), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(64), uint8(192), uint8(0))
	f.Add(uint64(3), uint8(40), uint8(64), uint8(16), uint8(32))
	f.Add(uint64(4), uint8(150), uint8(96), uint8(21), uint8(64))
	f.Add(uint64(5), uint8(128), uint8(64), uint8(64), uint8(255))
	f.Add(uint64(6), uint8(2), uint8(63), uint8(64+8+3-1), uint8(48))
	f.Add(uint64(7), uint8(4), uint8(9), uint8(7-1), uint8(48))
	f.Add(uint64(8), uint8(42), uint8(63), uint8(192-1), uint8(16))
	f.Add(uint64(9), uint8(5), uint8(0), uint8(80), uint8(96))
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	kinds := kernels()
	f.Fuzz(func(t *testing.T, seed uint64, rows, inner, cols, special uint8) {
		r := stats.NewRNG(seed)
		// special is the chance, out of 256, that an entry is one of
		// specials.
		fill := func(m *Matrix) {
			for i := range m.Data {
				if r.Intn(256) < int(special) {
					m.Data[i] = specials[r.Intn(len(specials))]
				} else {
					m.Data[i] = float32(r.NormMS(0, 1))
				}
			}
		}
		a := NewMatrix(1+int(rows), 1+int(inner))
		b := NewMatrix(a.Cols, 1+int(cols))
		fill(a)
		fill(b)
		want := matMulOracle(a, b)
		for _, avx2 := range kinds {
			useKernel(t, avx2)
			got := MatMul(a, b)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("%s kernel, %dx%d·%dx%d: element %d = %v, oracle %v",
					kernelName(avx2), a.Rows, a.Cols, b.Rows, b.Cols, i, got.Data[i], want.Data[i])
			}
		}
	})
}

var sinkMatrix *Matrix

// BenchmarkMatMul times MatMul with each kernel at the stage-chain
// model's shapes (hidden 64, FFN 192): one decode row against 64×64,
// 64×192 and 192×64 weights, and a 43-row prefill against 64×192, which
// takes the parallel row split when GOMAXPROCS > 1.
func BenchmarkMatMul(b *testing.B) {
	shapes := []struct{ rows, inner, cols int }{{1, 64, 64}, {1, 64, 192}, {1, 192, 64}, {43, 64, 192}}
	for _, avx2 := range kernels() {
		for _, s := range shapes {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kernelName(avx2), s.rows, s.inner, s.cols), func(b *testing.B) {
				useKernel(b, avx2)
				r := stats.NewRNG(1)
				x, w := randMatrix(r, s.rows, s.inner), randMatrix(r, s.inner, s.cols)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkMatrix = MatMul(x, w)
				}
			})
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestMatMulTransB(t *testing.T) {
	r := stats.NewRNG(3)
	a := NewMatrix(7, 11)
	b := NewMatrix(5, 11)
	for i := range a.Data {
		a.Data[i] = float32(r.NormMS(0, 1))
	}
	for i := range b.Data {
		b.Data[i] = float32(r.NormMS(0, 1))
	}
	got := MatMulTransB(a, b)
	want := MatMul(a, b.Transpose())
	if MaxAbsDiff(got, want) > 1e-5 {
		t.Fatalf("MatMulTransB differs by %v", MaxAbsDiff(got, want))
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		rows, cols := r.IntRange(1, 8), r.IntRange(1, 8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(r.NormMS(0, 1))
		}
		tt := m.Transpose().Transpose()
		return MaxAbsDiff(m, tt) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddBiasAndAdd(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	AddBias(m, []float32{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddBias = %v", m.Data)
	}
	s := Add(m, m)
	if s.At(0, 0) != 22 {
		t.Fatalf("Add = %v", s.Data)
	}
}

func TestFrobenius(t *testing.T) {
	m := FromSlice(1, 2, []float32{3, 4})
	if got := Frobenius(m); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Frobenius = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRowIsView(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Row(1)[2] = 42
	if m.At(1, 2) != 42 {
		t.Fatal("Row is not a view")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := r.IntRange(1, 6)
		mk := func(rows, cols int) *Matrix {
			m := NewMatrix(rows, cols)
			for i := range m.Data {
				m.Data[i] = float32(r.NormMS(0, 1))
			}
			return m
		}
		a, b, c := mk(n, n), mk(n, n), mk(n, n)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return MaxAbsDiff(left, right) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
