package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// fmtPlanKey and fmtFingerprint are PlanKey and Cluster.Fingerprint as
// they were first written, with fmt. Snapshots saved under those keys
// must keep hitting, so the appending versions must write the same
// bytes.
func fmtPlanKey(model, clusterFP string, batch workload.Batch, opts Options) string {
	if opts.MeshFilter != nil {
		return ""
	}
	o := opts.withDefaults()
	return fmt.Sprintf("%s|%s|B%d.s%d.k%d.n%d.r%d|theta=%v|%s|bits=%v|kv=%d|qc=%v|ord=%d|mb=%v|gs=%d|nodes=%d|tl=%d|ilp=%d|obj=%s",
		model, clusterFP, batch.Size, batch.ChunkLen, batch.Chunks, batch.GenTokens, batch.Reserve(),
		o.Theta, o.Method, o.Bits, o.BitKV, o.QualityCap, o.OrderingLimit, o.MicroBatches,
		o.GroupSize, o.MaxNodes, int64(o.TimeLimit), o.ILPCandidates, o.Objective)
}

func fmtFingerprint(c *cluster.Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bw=%.6g", c.InterBW)
	for _, n := range c.Nodes {
		fmt.Fprintf(&b, "|%s:%s:%d:%.6g:%.4g:%.4g", n.Name, n.Class, n.Count, n.IntraBW, n.SpeedScale, n.MemScale)
	}
	return b.String()
}

// keyInts packs the integer inputs of one key, in the order
// FuzzPlanKeyMatchesFormat reads them: the batch's size, chunk length,
// chunk count, generation and reserve tokens, then the options' KV bits,
// ordering limit, group size, node limit, ILP candidates and time limit.
func keyInts(xs ...int64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

// FuzzPlanKeyMatchesFormat checks that PlanKey, appendPlanKey (after a
// prefix) and Cluster.Fingerprint write exactly the bytes of the fmt
// formats they replaced, over fuzzed batches, options and derated,
// renamed presets.
// The seeds cover every preset, every method and objective, θ and
// quality caps of 0, 1e-9, 1e21, −0, ±Inf and NaN, and nil and empty
// Bits and MicroBatches.
func FuzzPlanKeyMatchesFormat(f *testing.F) {
	specials := []float64{0, 1e-9, 1e21, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	methods := []Method{"", MethodILP, MethodHeuristic, MethodAdabits, MethodUniform, MethodHet}
	objectives := []Phase{BothPhases, PrefillOnly, DecodeOnly}
	ints := keyInts(32, 512, 1, 32, 0, 16, 8, 0, 200, 3, int64(60*time.Second))
	for i := 0; i < 10; i++ {
		f.Add(uint8(i), "opt-13b", string(methods[i%len(methods)]), string(objectives[i%len(objectives)]), "",
			ints, []byte(nil), []byte(nil), false, false, false,
			specials[i%len(specials)], specials[(i+3)%len(specials)], 0.0, 0.0, 0.0, 0.0)
	}
	for i, v := range specials {
		f.Add(uint8(i), "qwen2.5-14b", string(methods[i%len(methods)]), string(objectives[i%len(objectives)]), "",
			keyInts(16, 2048, 3, 181, 402, 8, 4, 2, 50, 1, int64(time.Second)),
			[]byte{3, 4, 8, 16}, []byte{2, 4, 8}, false, false, false,
			v, v, 1e21, 1e-9, 0.5, 0.75)
	}
	f.Add(uint8(1), "", "heuristic", "", "node|a:b", keyInts(-1, 0, 0, -5, 7), []byte{}, []byte{}, true, true, false,
		0.1, 1.0/3, math.NaN(), math.Inf(1), math.Copysign(0, -1), 123456.789)
	f.Add(uint8(4), "opt-1.3b", "ilp", "decode", "", keyInts(1), []byte{255, 0}, []byte{128}, true, false, true,
		1.0000001, 1e300, 5e-324, math.MaxFloat64, 1e-5, 0.99995)
	f.Fuzz(func(t *testing.T, preset uint8, model, method, objective, node string,
		ints, bits, mbs []byte, emptyBits, emptyMBs, filter bool,
		theta, qc, interBW, intraBW, speed, mem float64) {
		next := func() int64 {
			var word [8]byte
			ints = ints[copy(word[:], ints):]
			return int64(binary.LittleEndian.Uint64(word[:]))
		}
		batch := workload.Batch{Size: int(next()), ChunkLen: int(next()), Chunks: int(next()),
			GenTokens: int(next()), ReserveTokens: int(next())}
		opts := Options{Theta: theta, QualityCap: qc, Method: Method(method), Objective: Phase(objective),
			BitKV: int(next()), OrderingLimit: int(next()), GroupSize: int(next()), MaxNodes: int(next()),
			ILPCandidates: int(next()), TimeLimit: time.Duration(next())}
		small := func(bs []byte, empty bool) []int {
			if len(bs) == 0 && !empty {
				return nil
			}
			out := make([]int, len(bs))
			for i, b := range bs {
				out[i] = int(int8(b))
			}
			return out
		}
		opts.Bits, opts.MicroBatches = small(bits, emptyBits), small(mbs, emptyMBs)
		if filter {
			opts.MeshFilter = func([]cluster.Device) bool { return true }
		}

		clu := *cluster.MustPreset(int(preset)%10 + 1)
		clu.Nodes = append([]cluster.Node(nil), clu.Nodes...)
		if interBW != 0 {
			clu.InterBW = interBW
		}
		n := &clu.Nodes[len(clu.Nodes)-1]
		if node != "" {
			n.Name, n.Class = node, gpu.DeviceClass(node+"%v")
		}
		if intraBW != 0 {
			n.IntraBW = intraBW
		}
		n.SpeedScale, n.MemScale = speed, mem

		fp := fmtFingerprint(&clu)
		if got := clu.Fingerprint(); got != fp {
			t.Fatalf("Fingerprint = %q, fmt wrote %q", got, fp)
		}
		want := fmtPlanKey(model, fp, batch, opts)
		if got := PlanKey(model, &clu, batch, opts); got != want {
			t.Fatalf("PlanKey = %q, fmt wrote %q", got, want)
		}
		if got := string(appendPlanKey([]byte("prefix"), model, &clu, batch, opts)); got != "prefix"+want {
			t.Fatalf("appendPlanKey = %q, want %q", got, "prefix"+want)
		}
	})
}
