package tensor

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX2DispatchOnWhereCPUHasIt guards the CPUID check: a machine whose
// kernel lists avx2 must run the AVX2 kernel, not fall back to the Go one
// with every bit-exactness test still passing.
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
		for _, f := range strings.Fields(flags) {
			if f == "avx2" {
				if !cpuHasAVX2() || !useAVX2 {
					t.Fatalf("cpuinfo lists avx2 but cpuHasAVX2() = %v, useAVX2 = %v", cpuHasAVX2(), useAVX2)
				}
				return
			}
		}
		t.Skip("cpuinfo does not list avx2")
	}
	t.Skip("no flags line in cpuinfo")
}
