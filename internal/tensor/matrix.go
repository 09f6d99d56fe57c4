// Package tensor implements the dense float32 linear-algebra kernels that
// back the reproduction's real transformer forward pass (internal/tinyllm)
// and the quantization library (internal/quant): matrix multiplication
// (parallel over rows, with an AVX2 assembly kernel on amd64), softmax,
// layer normalization, GELU, and the small utility operations an LLM
// decoder needs.
//
// Matrices are stored row-major in a flat []float32 so the hot loops are
// contiguous.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix returns a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d)", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (row-major) as a rows×cols matrix without copying.
// It panics if the shape does not match len(data).
func FromSlice(rows, cols int, data []float32) *Matrix {
	if rows*cols != len(data) {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d with %d elements", rows, cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view (no copy) of row r.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			out.Data[c*m.Rows+r] = v
		}
	}
	return out
}

// parallelThreshold is the minimum amount of multiply-accumulate work
// below which MatMul stays single-threaded; goroutine fan-out costs more
// than it saves on tiny problems.
const parallelThreshold = 1 << 16

// MatMul computes a·b, parallelizing over row blocks of a. It panics on
// shape mismatch.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	work := a.Rows * a.Cols * b.Cols
	nw := runtime.GOMAXPROCS(0)
	if work < parallelThreshold || nw <= 1 || a.Rows == 1 {
		matMulRange(a, b, out, 0, a.Rows)
		return out
	}
	if nw > a.Rows {
		nw = a.Rows
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRange(a, b, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// matMulRange computes rows [lo, hi) of out = a·b into a zeroed out. The
// row's columns up to the last multiple of eight go to matMulTiledAVX2
// where the CPU has AVX2 and to matMulTiledGo elsewhere; the n%8
// remainder columns use a plain ikj loop.
//
// Every output element is summed from zero over k in ascending order,
// skipping zero entries of a, whatever the kernel or tiling: the result is
// bit-for-bit that of the textbook ikj loop. tinyllm's forward pass, and
// with it EXPERIMENTS.md and transport.Reference, depends on that. Each
// product is written float32(av * b): the conversion rounds the product
// before the add, so no compiler may fuse the two into one FMA (arm64's
// would).
func matMulRange(a, b, out *Matrix, lo, hi int) {
	n := b.Cols
	tiled := n &^ 7
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		if useAVX2 {
			matMulTiledAVX2(ar, b.Data, or[:tiled], n)
		} else {
			matMulTiledGo(ar, b.Data, or[:tiled], n)
		}
		if tiled == n {
			continue
		}
		rem := or[tiled:]
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Data[k*n+tiled : k*n+n]
			for j := range br {
				rem[j] += float32(av * br[j])
			}
		}
	}
}

// matMulTiledGo computes or[j] = Σ_k ar[k]·b[k·n+j] for every j <
// len(or), a multiple of 8, where b holds len(ar) rows of stride n. It
// holds eight output columns in registers over the whole k loop and
// stores them once.
func matMulTiledGo(ar, b, or []float32, n int) {
	for j := 0; j < len(or); j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		off := j
		for _, av := range ar {
			if av != 0 {
				br := (*[8]float32)(b[off : off+8])
				s0 += float32(av * br[0])
				s1 += float32(av * br[1])
				s2 += float32(av * br[2])
				s3 += float32(av * br[3])
				s4 += float32(av * br[4])
				s5 += float32(av * br[5])
				s6 += float32(av * br[6])
				s7 += float32(av * br[7])
			}
			off += n
		}
		o := (*[8]float32)(or[j:])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}

// MatMulTransB computes a·bᵀ without materializing the transpose; b must
// have the same number of columns as a.
func MatMulTransB(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			br := b.Row(j)
			var s float32
			for k := range ar {
				s += float32(ar[k] * br[k])
			}
			or[j] = s
		}
	}
	return out
}

// AddBias adds the bias vector to each row of m in place. It panics if
// len(bias) != m.Cols.
func AddBias(m *Matrix, bias []float32) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: AddBias len %d on %d cols", len(bias), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += bias[c]
		}
	}
}

// Add returns a+b elementwise. It panics on shape mismatch.
func Add(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: Add shape mismatch")
	}
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Frobenius returns the Frobenius norm of m.
func Frobenius(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max_i |a_i - b_i|, a convenient error metric between
// two equal-shaped matrices. It panics on shape mismatch.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}
