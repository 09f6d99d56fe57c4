package tensor

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"testing"
	"testing/quick"
	"time"

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

// TestMatMulParallelMatchesSerial checks the row split against the
// oracle at worker counts that divide the rows evenly and unevenly, and
// MatMul at a size past parallelThreshold.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	r := stats.NewRNG(2)
	a, b := randMatrix(r, 128, 96), randMatrix(r, 96, 64)
	want := matMulOracle(a, b)
	big, bigW := randMatrix(r, 160, 128), randMatrix(r, 128, 112)
	if big.Rows*big.Cols*bigW.Cols < parallelThreshold {
		t.Fatal("the MatMul case no longer reaches parallelThreshold")
	}
	bigWant := matMulOracle(big, bigW)
	for _, avx2 := range kernels() {
		t.Run(kernelName(avx2), func(t *testing.T) {
			useKernel(t, avx2)
			for _, nw := range []int{1, 2, 3, 8} {
				got := NewMatrix(a.Rows, b.Cols)
				matMulSplit(a, b, got, nw)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%d workers and oracle differ at %d: %v vs %v", nw, i, got.Data[i], want.Data[i])
				}
			}
			if got := MatMul(big, bigW); firstBitDiff(got, bigWant) >= 0 {
				t.Fatal("MatMul past parallelThreshold differs from the oracle")
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

// firstBitDiff is firstSliceBitDiff over two matrices' elements.
func firstBitDiff(got, want *Matrix) int { return firstSliceBitDiff(got.Data, want.Data) }

// firstSliceBitDiff returns the first index at which got and want differ
// in their bits (any two NaNs count as equal), or -1.
func firstSliceBitDiff(got, want []float32) int {
	for i, g := range got {
		w := want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// FuzzMatMulBitExact checks MatMul, a three-way row split, and MatMulRow
// over a column block of b, with each kernel against matMulOracle bit for
// bit on shapes with column counts that are not multiples of the kernel's
// tiles, and inputs seeded with zeros,
// negative zeros, infinities and NaNs. The
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
		// The last row again through MatMulRow, over the column block
		// [lo, b.Cols) read in place, as attention reads one head.
		lo := b.Cols / 3
		last := a.Rows - 1
		block := make([]float32, b.Cols-lo)
		for _, avx2 := range kinds {
			useKernel(t, avx2)
			got := MatMul(a, b)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("%s kernel, %dx%d·%dx%d: element %d = %v, oracle %v",
					kernelName(avx2), a.Rows, a.Cols, b.Rows, b.Cols, i, got.Data[i], want.Data[i])
			}
			matMulSplit(a, b, got, 3)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("%s kernel, three-way split of %dx%d·%dx%d: element %d = %v, oracle %v",
					kernelName(avx2), a.Rows, a.Cols, b.Rows, b.Cols, i, got.Data[i], want.Data[i])
			}
			MatMulRow(a.Row(last), b.Data[lo:], block, b.Cols)
			if i := firstSliceBitDiff(block, want.Row(last)[lo:]); i >= 0 {
				t.Fatalf("%s kernel, MatMulRow over columns [%d, %d): column %d = %v, oracle %v",
					kernelName(avx2), lo, b.Cols, lo+i, block[i], want.At(last, lo+i))
			}
		}
	})
}

var sinkMatrix *Matrix

// BenchmarkMatMul times MatMulInto with each kernel at the stage-chain
// model's shapes (hidden 64, FFN 192): one decode row against 64×64,
// 64×192 and 192×64 weights, and 8- and 43-row prefills (the chain's
// shortest and longest prompts) against 64×192 and 192×64. Each shape
// runs serial and split across GOMAXPROCS goroutines, and reports the
// process CPU time per op (cpu-ns/op) beside the wall time: the split
// can cut the wall time and still cost more CPU, and parallelThreshold
// is set from the CPU.
func BenchmarkMatMul(b *testing.B) {
	shapes := []struct{ rows, inner, cols int }{{1, 64, 64}, {1, 64, 192}, {1, 192, 64},
		{8, 64, 192}, {43, 64, 192}, {43, 192, 64}}
	for _, avx2 := range kernels() {
		for _, s := range shapes {
			for _, nw := range []int{1, runtime.GOMAXPROCS(0)} {
				name := "serial"
				if nw > 1 {
					name = fmt.Sprintf("split%d", nw)
				}
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", kernelName(avx2), s.rows, s.inner, s.cols, name), func(b *testing.B) {
					useKernel(b, avx2)
					r := stats.NewRNG(1)
					x, w := randMatrix(r, s.rows, s.inner), randMatrix(r, s.inner, s.cols)
					out := NewMatrix(s.rows, s.cols)
					b.ReportAllocs()
					b.ResetTimer()
					cpu0 := cpuTime(b)
					for i := 0; i < b.N; i++ {
						matMulSplit(x, w, out, nw)
					}
					b.ReportMetric(float64(cpuTime(b)-cpu0)/float64(b.N), "cpu-ns/op")
					sinkMatrix = out
				})
			}
		}
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
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

func TestAdd(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	s := Add(m, m)
	if s.At(0, 0) != 2 || s.At(1, 1) != 8 {
		t.Fatalf("Add = %v", s.Data)
	}
	// In place: out may be either operand.
	AddInto(m, m, s)
	if m.At(0, 0) != 3 || m.At(1, 1) != 12 || s.At(1, 1) != 8 {
		t.Fatalf("AddInto = %v", m.Data)
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
