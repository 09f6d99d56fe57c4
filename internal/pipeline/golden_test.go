package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/workload"
)

// goldenSimulateHash is the SHA-256 of every Result field (floats by
// their bits, per-stage slices included) Simulate returns over
// goldenCases. A change to the simulator's float arithmetic or its
// evaluation order moves it; never re-record it to make such a change
// pass. It was recorded on amd64, where the Go compiler does not fuse
// x*y+z into one rounding.
const goldenSimulateHash = "fee5d123a6fd8100d8505bc385b3ca3010a2b08c21b1ab505f595acad6d101d1"

// bitCycle is the per-layer bit pattern of the mixed-precision test
// plans: every supported weight bitwidth, unevenly repeated.
var bitCycle = []int{16, 8, 8, 4, 3, 4, 16, 3}

// mixedPlan splits spec's layers as evenly as possible over devs and
// gives layer l the bit bitCycle[(l+shift) % len(bitCycle)].
func mixedPlan(spec *model.Spec, devs []cluster.Device, shift, eta, xi, bitKV int) *plan.Plan {
	p := &plan.Plan{Model: spec.Name, PrefillMicroBatch: eta, DecodeMicroBatch: xi, BitKV: bitKV, Method: "mixed"}
	layer := 0
	for i, d := range devs {
		cnt := spec.Layers / len(devs)
		if i < spec.Layers%len(devs) {
			cnt++
		}
		bits := make([]int, cnt)
		for j := range bits {
			bits[j] = bitCycle[(layer+j+shift)%len(bitCycle)]
		}
		p.Stages = append(p.Stages, plan.Stage{Device: d, FirstLayer: layer, Bits: bits})
		layer += cnt
	}
	return p
}

// tp2Mesh returns preset 10's mesh of two TP2 groups.
func tp2Mesh(t testing.TB) (*cluster.Cluster, []cluster.Device) {
	t.Helper()
	clu := cluster.MustPreset(10)
	for _, m := range clu.Meshes() {
		if len(m) == 2 && m[0].TPDegree == 2 {
			return clu, m
		}
	}
	t.Fatal("preset 10 has no TP2 mesh")
	return nil, nil
}

type goldenCase struct {
	name  string
	spec  *model.Spec
	clu   *cluster.Cluster
	devs  []cluster.Device
	bitKV int
}

// goldenCases are the clusters of the golden grid: a heterogeneous
// two-node preset, a homogeneous one, and preset 10 as two TP2 stages.
func goldenCases(t testing.TB) []goldenCase {
	c2, c9 := cluster.MustPreset(2), cluster.MustPreset(9)
	c10, tp2 := tp2Mesh(t)
	return []goldenCase{
		{"preset2", model.OPT13B, c2, c2.Devices(), 16},
		{"preset9", model.OPT13B, c9, c9.Devices(), 8},
		{"preset10-tp2", model.Llama70B, c10, tp2, 16},
	}
}

func hashFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// hashResult writes every Result field into h.
func hashResult(h hash.Hash, r *Result) {
	hashFloats(h, r.PrefillSeconds, r.DecodeSeconds, r.TotalSeconds, r.Throughput, r.BubbleFraction, r.TTFT, r.TBT)
	binary.Write(h, binary.LittleEndian, int64(r.OutputTokens))
	hashFloats(h, r.StagePrefill...)
	hashFloats(h, r.StageDecode...)
	hashFloats(h, r.StageBusy...)
	for _, m := range r.StageMemory {
		binary.Write(h, binary.LittleEndian, m)
	}
}

// TestSimulateGolden pins Simulate's output bit for bit over a grid:
// three clusters (one of them TP2), one and 32 generated tokens, a
// decode micro-batch that divides the batch and one that does not, and
// unchunked and chunked prefill.
func TestSimulateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	h := sha256.New()
	runs := 0
	for _, gc := range goldenCases(t) {
		for _, gen := range []int{1, 32} {
			for _, xi := range []int{8, 5} {
				for _, chunks := range []int{1, 2} {
					p := mixedPlan(gc.spec, gc.devs, xi, 8, xi, gc.bitKV)
					b := workload.Batch{Size: 32, ChunkLen: 512 / chunks, Chunks: chunks, GenTokens: gen}
					res, err := Simulate(p, gc.spec, gc.clu, b)
					if err != nil {
						t.Fatalf("%s gen=%d ξ=%d chunks=%d: %v", gc.name, gen, xi, chunks, err)
					}
					fmt.Fprintf(h, "%s/%d/%d/%d;", gc.name, gen, xi, chunks)
					hashResult(h, res)
					runs++
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSimulateHash {
		t.Fatalf("Simulate hash over %d runs = %s, want %s", runs, got, goldenSimulateHash)
	}
}
