//go:build !amd64

package tensor

// useAVX2 stays false off amd64: matMulRange runs matMulTiledGo.
var useAVX2 bool

func cpuHasAVX2() bool { return false }

func matMulTiledAVX2(ar, b, or []float32, n int) { panic("tensor: AVX2 kernel off amd64") }
