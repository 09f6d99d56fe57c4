package tensor

import (
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

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Big enough to trip the parallel path.
	r := stats.NewRNG(2)
	a := NewMatrix(128, 96)
	b := NewMatrix(96, 64)
	for i := range a.Data {
		a.Data[i] = float32(r.NormMS(0, 1))
	}
	for i := range b.Data {
		b.Data[i] = float32(r.NormMS(0, 1))
	}
	par := MatMul(a, b)
	ser := NewMatrix(a.Rows, b.Cols)
	matMulRange(a, b, ser, 0, a.Rows)
	if i := firstBitDiff(par, ser); i >= 0 {
		t.Fatalf("parallel and serial differ at %d: %v vs %v", i, par.Data[i], ser.Data[i])
	}
}

// matMulOracle is the textbook ikj product: each output element summed
// from zero over k in ascending order, skipping zero entries of a. The
// kernel must reproduce it bit for bit.
func matMulOracle(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		or := out.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				or[j] += av * bv
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

// FuzzMatMulBitExact checks MatMul against matMulOracle bit for bit on
// shapes with column counts that are not multiples of the kernel's tile,
// shapes large enough for the parallel row split, and inputs seeded with
// zeros, negative zeros and infinities.
func FuzzMatMulBitExact(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5), uint8(7), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(64), uint8(192), uint8(0))
	f.Add(uint64(3), uint8(40), uint8(64), uint8(16), uint8(32))
	f.Add(uint64(4), uint8(150), uint8(96), uint8(21), uint8(64))
	f.Add(uint64(5), uint8(128), uint8(64), uint8(64), uint8(255))
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1))}
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
		got, want := MatMul(a, b), matMulOracle(a, b)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%dx%d·%dx%d: element %d = %v, oracle %v",
				a.Rows, a.Cols, b.Rows, b.Cols, i, got.Data[i], want.Data[i])
		}
	})
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
