package tensor

// useFMA selects geluAVX2 and softmaxExpAVX2 for GELU's and SoftmaxRow's
// groups of four. It is set once from the CPU's feature bits: FMA is the
// test math.Exp makes before it takes the FMA path the kernels repeat.
var useFMA = cpuHasFMA()

// cpuHasFMA reports whether the CPU has AVX2 and FMA (CPUID leaf 1 ECX
// bit 12) and the OS saves the YMM registers.
func cpuHasFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return cpuHasAVX2() && ecx&fma != 0
}

// geluAVX2 applies GELU in place to x's whole groups of four, each as four
// float64 lanes that repeat geluScalar op for op: the cube, the Cephes
// rational tanh below |y| = 0.625, 1 − 2/(e^{2|y|}+1) above it with
// math.Exp's FMA path inlined, and (0.5·x)·(1+t). It stops before the
// first group with a lane whose |y| exceeds 0.5·MAXLOG or is NaN, where
// math.Tanh takes a branch the kernel does not have, and returns the
// number of elements done, a multiple of 4.
//
//go:noescape
func geluAVX2(x []float32) (n int)

// softmaxExpAVX2 replaces xs's whole groups of four with
// float32(exp(float64(v − mx))), math.Exp's FMA path in four lanes, and
// adds each exponential to sum in index order. It stops before the first
// group with an argument below −708 or NaN, where math.Exp may leave its
// straight-line path, and returns the number of elements done, a multiple
// of 4, and the sum so far.
//
//go:noescape
func softmaxExpAVX2(xs []float32, mx float32, sum float64) (n int, s float64)
