//go:build !amd64

package tensor

// useAVX2 and useFMA stay false off amd64: matMulRange runs
// matMulTiledGo, and GELU and SoftmaxRow run their scalar loops.
var useAVX2, useFMA bool

func cpuHasAVX2() bool { return false }

func cpuHasFMA() bool { return false }

func matMulTiledAVX2(ar, b, or []float32, n int) { panic("tensor: AVX2 kernel off amd64") }

func geluAVX2(x []float32) int { panic("tensor: AVX2 kernel off amd64") }

func softmaxExpAVX2(xs []float32, mx float32, sum float64) (int, float64) {
	panic("tensor: AVX2 kernel off amd64")
}
