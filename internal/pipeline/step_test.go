package pipeline

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/workload"
)

// decodeStepRef is the per-layer decode step DecodeStepLatency must
// reproduce bit for bit: every layer's cost evaluated for every
// micro-batch, link times recomputed for every hop.
func decodeStepRef(p *plan.Plan, spec *model.Spec, clu *cluster.Cluster, v, ctx int) float64 {
	if v <= 0 || len(p.Stages) == 0 {
		return 0
	}
	xi := p.DecodeMicroBatch
	if xi > v {
		xi = v
	}
	if xi < 1 {
		xi = 1
	}
	muDec := ceilDiv(v, xi)
	nStages := len(p.Stages)
	master := p.Stages[0].Device
	stageFree := make([]float64, nStages)
	linkTime := func(i int) float64 {
		if i >= nStages-1 {
			return 0
		}
		bw := clu.LinkBandwidth(&p.Stages[i].Device, &p.Stages[i+1].Device)
		return float64(spec.ActivationTransferBytes(xi, 1)) / bw
	}
	lm := devLMHead(master, spec, xi)
	var end float64
	for m := 0; m < muDec; m++ {
		arrive := 0.0
		for j := 0; j < nStages; j++ {
			start := arrive
			if stageFree[j] > start {
				start = stageFree[j]
			}
			work := 0.0
			for _, bit := range p.Stages[j].Bits {
				work += p.Stages[j].Device.DecodeLayerLatency(spec, xi, ctx, bit, p.BitKV)
			}
			finish := start + work
			stageFree[j] = finish
			arrive = finish + linkTime(j)
		}
		if t := arrive + lm; t > end {
			end = t
		}
	}
	return end
}

// fuzzMesh is one placeable device set of a preset cluster.
type fuzzMesh struct {
	clu  *cluster.Cluster
	devs []cluster.Device
}

// fuzzMeshes are the device sets FuzzDecodeStep draws from: every mesh
// of two heterogeneous, a homogeneous and an all-A100 preset, so
// degree-1 devices, TP2 and TP4 groups, and intra- and inter-node links
// appear, plus preset 7's devices twice over, a 12-stage chain longer
// than the stack scratch.
func fuzzMeshes() []fuzzMesh {
	var out []fuzzMesh
	for _, n := range []int{2, 7, 9, 10} {
		clu := cluster.MustPreset(n)
		for _, m := range clu.Meshes() {
			out = append(out, fuzzMesh{clu, m})
		}
	}
	c7 := cluster.MustPreset(7)
	return append(out, fuzzMesh{c7, append(c7.Devices(), c7.Devices()...)})
}

// FuzzDecodeStep checks DecodeStepLatency against decodeStepRef bit for
// bit over random plans: mixed bits {3,4,8,16}, KV at 8 or 16 bits,
// ragged layer splits, v below ξ, ragged micro-batch counts, and context
// lengths at their edges. On the same plan it runs one DecodeStepper
// through a sequence of steps whose batch sizes move across ξ, so its
// shapes are built lazily and reused in any order, and checks every
// step against DecodeStepLatency bit for bit.
func FuzzDecodeStep(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(8), 32, 512, false)
	f.Add(uint8(3), uint64(7), uint8(5), 32, 1, true)
	f.Add(uint8(9), uint64(42), uint8(0), 1, 0, false)
	f.Add(uint8(12), uint64(99), uint8(64), 7, 4096, true)
	f.Add(uint8(5), uint64(3), uint8(3), 0, 2048, true)
	f.Add(uint8(14), uint64(11), uint8(2), 9, 300, false)
	meshes := fuzzMeshes()
	// The 12-stage chain, which takes the stepper's heap scratch, at
	// several ξ.
	long := uint8(len(meshes) - 1)
	f.Add(long, uint64(5), uint8(4), 13, 700, false)
	f.Add(long, uint64(8), uint8(16), 40, 65, true)
	f.Add(long, uint64(21), uint8(1), 3, 1500, false)
	specs := []*model.Spec{model.OPT13B, model.Llama70B}
	f.Fuzz(func(t *testing.T, mesh uint8, bitSeed uint64, xi uint8, v, ctx int, kv8 bool) {
		if v > 1024 || ctx < -1 || ctx > 1<<16 {
			t.Skip()
		}
		m := meshes[int(mesh)%len(meshes)]
		spec := specs[bitSeed%2]
		// Split the layers over the mesh's devices with ragged counts.
		rng := bitSeed
		next := func(n uint64) uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return (rng >> 33) % n
		}
		bitKV := 16
		if kv8 {
			bitKV = 8
		}
		p := &plan.Plan{Model: spec.Name, PrefillMicroBatch: 8, DecodeMicroBatch: int(xi), BitKV: bitKV}
		layer := 0
		for i, d := range m.devs {
			cnt := spec.Layers - layer
			if rest := len(m.devs) - i - 1; rest > 0 {
				cnt = 1 + int(next(uint64(cnt-rest)))
			}
			bits := make([]int, cnt)
			for j := range bits {
				bits[j] = []int{3, 4, 8, 16}[next(4)]
			}
			p.Stages = append(p.Stages, plan.Stage{Device: d, FirstLayer: layer, Bits: bits})
			layer += cnt
		}
		got := DecodeStepLatency(p, spec, m.clu, v, ctx)
		want := decodeStepRef(p, spec, m.clu, v, ctx)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s v=%d ctx=%d ξ=%d: DecodeStepLatency = %v, reference %v", p, v, ctx, xi, got, want)
		}
		s := NewDecodeStepper(p, spec, m.clu)
		for k := 0; k < 12; k++ {
			sv, sctx := v, ctx
			if k > 0 {
				sv = int(next(uint64(2*int(xi) + 3)))
				sctx = int(next(uint64(max(ctx, 0) + 64)))
			}
			got, want := s.Latency(sv, sctx), DecodeStepLatency(p, spec, m.clu, sv, sctx)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s step %d v=%d ctx=%d ξ=%d: DecodeStepper = %v, DecodeStepLatency %v", p, k, sv, sctx, xi, got, want)
			}
		}
	})
}

// TestDecodeStepVsSimulate pins how the online tier's step price relates
// to Simulate: summed over a fixed batch's decode steps it equals
// Simulate's DecodeSeconds when the batch is one micro-batch, and is
// never smaller when there are several, because each priced step starts
// from an idle pipeline and forgoes Simulate's cross-step overlap.
func TestDecodeStepVsSimulate(t *testing.T) {
	clu := cluster.MustPreset(9)
	spec := model.OPT13B
	b := workload.Batch{Size: 32, ChunkLen: 512, Chunks: 1, GenTokens: 32}
	for _, xi := range []int{64, 32, 16, 8, 5, 3} {
		p := evenPlan(spec, clu, 16, 8, xi)
		res, err := Simulate(p, spec, clu, b)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for step := 0; step < b.GenTokens-1; step++ {
			sum += DecodeStepLatency(p, spec, clu, b.Size, b.PaddedPrompt()+step+1)
		}
		ratio := sum / res.DecodeSeconds
		t.Logf("ξ=%d: Σ DecodeStepLatency / DecodeSeconds = %.6f", xi, ratio)
		if xi >= b.Size {
			if math.Abs(ratio-1) > 1e-12 {
				t.Errorf("ξ=%d ≥ B: stepped sum %v ≠ Simulate decode %v (ratio %.15f)", xi, sum, res.DecodeSeconds, ratio)
			}
		} else if ratio < 1 {
			t.Errorf("ξ=%d < B: stepped sum %v below Simulate decode %v", xi, sum, res.DecodeSeconds)
		}
	}
}

// cyclePlan spreads spec's layers evenly over n stages on clu's devices
// taken round-robin, with the mixed bit pattern.
func cyclePlan(spec *model.Spec, clu *cluster.Cluster, n, xi int) *plan.Plan {
	devs := clu.Devices()
	stages := make([]cluster.Device, n)
	for i := range stages {
		stages[i] = devs[i%len(devs)]
	}
	return mixedPlan(spec, stages, 0, 8, xi, 16)
}

// TestDecodeStepLatencyAllocs pins DecodeStepLatency's scratch on the
// stack for plans of up to stackStages stages, and a DecodeStepper's
// steps to no allocation once its shapes are built.
func TestDecodeStepLatencyAllocs(t *testing.T) {
	clu := cluster.MustPreset(7)
	for n := 1; n <= stackStages; n++ {
		p := cyclePlan(model.OPT13B, clu, n, 4)
		if a := testing.AllocsPerRun(100, func() { DecodeStepLatency(p, model.OPT13B, clu, 30, 700) }); a != 0 {
			t.Errorf("%d stages: %v allocations per call, want 0", n, a)
		}
		s := NewDecodeStepper(p, model.OPT13B, clu)
		for v := 1; v <= 4; v++ {
			s.Latency(v, 1)
		}
		if a := testing.AllocsPerRun(100, func() { s.Latency(30, 700); s.Latency(3, 700) }); a != 0 {
			t.Errorf("%d stages: %v allocations per two stepper calls, want 0", n, a)
		}
	}
}

// onlineDayDecode is the shape of the decode plan capacity.PlanFleet
// picks for perfbench's online-day fleet: OPT-13B whole on one TP2
// group of V100s, 8-bit weights and KV, ξ = 16.
func onlineDayDecode(tb testing.TB) (*plan.Plan, *cluster.Cluster) {
	tb.Helper()
	clu := &cluster.Cluster{Name: "decode", InterBW: cluster.Eth800BW,
		Nodes: []cluster.Node{{Name: "n1", Class: gpu.V100, Count: 2, IntraBW: cluster.NVLinkBW}}}
	for _, m := range clu.Meshes() {
		if len(m) == 1 && m[0].TPDegree == 2 {
			bits := make([]int, model.OPT13B.Layers)
			for i := range bits {
				bits[i] = 8
			}
			return &plan.Plan{Model: model.OPT13B.Name, PrefillMicroBatch: 16, DecodeMicroBatch: 16, BitKV: 8,
				Stages: []plan.Stage{{Device: m[0], Bits: bits}}}, clu
		}
	}
	tb.Fatal("no TP2 mesh")
	return nil, nil
}

// stepSink keeps the benchmarked calls' results live.
var stepSink float64

// BenchmarkDecodeStepLatency times one step price on the online-day
// decode plan over perfbench's batch × context grid, and on a mixed
// four-stage plan.
func BenchmarkDecodeStepLatency(b *testing.B) {
	day, dayClu := onlineDayDecode(b)
	c9 := cluster.MustPreset(9)
	mixed := mixedPlan(model.OPT13B, c9.Devices(), 0, 8, 8, 16)
	for _, bc := range []struct {
		name string
		p    *plan.Plan
		clu  *cluster.Cluster
	}{{"online-day", day, dayClu}, {"mixed-4stage", mixed, c9}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, v := range []int{1, 8, 16, 32} {
					for _, ctx := range []int{128, 512, 1024, 2048} {
						stepSink = DecodeStepLatency(bc.p, model.OPT13B, bc.clu, v, ctx)
					}
				}
			}
		})
		b.Run(bc.name+"/stepper", func(b *testing.B) {
			s := NewDecodeStepper(bc.p, model.OPT13B, bc.clu)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, v := range []int{1, 8, 16, 32} {
					for _, ctx := range []int{128, 512, 1024, 2048} {
						stepSink = s.Latency(v, ctx)
					}
				}
			}
		})
	}
}

// BenchmarkSimulate times one offline-warm job shape (OPT-13B, B=32,
// 512-token prompts, 32 tokens, on preset 2) at two decode micro-batch
// sizes.
func BenchmarkSimulate(b *testing.B) {
	clu := cluster.MustPreset(2)
	batch := workload.Batch{Size: 32, ChunkLen: 512, Chunks: 1, GenTokens: 32}
	for _, xi := range []int{8, 32} {
		p := mixedPlan(model.OPT13B, clu.Devices(), 0, 8, xi, 16)
		b.Run(fmt.Sprintf("xi=%d", xi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(p, model.OPT13B, clu, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
