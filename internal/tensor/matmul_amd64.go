package tensor

// useAVX2 selects matMulTiledAVX2 for matMulRange's 8-column tiles. It is
// set once here from the CPU's feature bits; tests flip it to run both
// kernels.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID leaf 1 ECX bits 27 (OSXSAVE)
// and 28 (AVX), XCR0 bits 1 and 2 (XMM and YMM state), and CPUID leaf 7
// EBX bit 5 (AVX2).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// matMulTiledAVX2 computes or[j] = Σ_k ar[k]·b[k·n+j] for every j <
// len(or), which must be a multiple of 8; b holds len(ar) rows of stride
// n ≥ len(or). It runs 64-column blocks with eight YMM accumulators, then
// 8-column blocks with one. For each k in ascending order it skips a ±0
// ar[k] (never a NaN), broadcasts ar[k], and per accumulator multiplies
// (VMULPS) and then adds (VADDPS), never fused: each element is the same
// float32 operations in the same order as matMulTiledGo's.
//
//go:noescape
func matMulTiledAVX2(ar, b, or []float32, n int)
