package tensor

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVX2DispatchOnWhereCPUHasIt guards the CPUID checks: a machine whose
// kernel lists avx2 must run the AVX2 matmul kernel, and one that lists
// avx2 and fma must also run the GELU and softmax kernels, not fall back
// to the Go loops with every bit-exactness test still passing.
func TestAVX2DispatchOnWhereCPUHasIt(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		fs := strings.Fields(flags)
		if !slices.Contains(fs, "avx2") {
			t.Skip("cpuinfo does not list avx2")
		}
		if !cpuHasAVX2() || !useAVX2 {
			t.Fatalf("cpuinfo lists avx2 but cpuHasAVX2() = %v, useAVX2 = %v", cpuHasAVX2(), useAVX2)
		}
		if hasFMA := slices.Contains(fs, "fma"); hasFMA != cpuHasFMA() || hasFMA != useFMA {
			t.Fatalf("cpuinfo lists avx2, fma listed = %v, but cpuHasFMA() = %v, useFMA = %v", hasFMA, cpuHasFMA(), useFMA)
		}
		return
	}
	t.Skip("no flags line in cpuinfo")
}
