package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/model"
)

func TestPhaseSplitsHeterogeneous(t *testing.T) {
	// cluster2 = 2×V100 + 1×A100: one class boundary, so exactly one
	// split — the A100 (higher FLOPS) prefills, the V100s decode.
	splits := PhaseSplits(cluster.MustPreset(2))
	if len(splits) != 1 {
		t.Fatalf("got %d splits, want 1", len(splits))
	}
	sp := splits[0]
	for _, n := range sp.Prefill.Nodes {
		if n.Class != gpu.A100 {
			t.Fatalf("prefill pool got %s node, want A100 only", n.Class)
		}
	}
	for _, n := range sp.Decode.Nodes {
		if n.Class != gpu.V100 {
			t.Fatalf("decode pool got %s node, want V100 only", n.Class)
		}
	}
}

func TestPhaseSplitsThreeClasses(t *testing.T) {
	clu := &cluster.Cluster{Name: "tri", InterBW: cluster.Eth800BW, Nodes: []cluster.Node{
		{Name: "a", Class: gpu.A100, Count: 1, IntraBW: cluster.NVLinkBW},
		{Name: "v", Class: gpu.V100, Count: 2, IntraBW: cluster.NVLinkBW},
		{Name: "t", Class: gpu.T4, Count: 2, IntraBW: cluster.NVLinkBW},
	}}
	splits := PhaseSplits(clu)
	if len(splits) != 2 {
		t.Fatalf("got %d splits, want 2", len(splits))
	}
	// Strongest-prefill first: split 0 = {A100} vs {V100,T4},
	// split 1 = {A100,V100} vs {T4}.
	if len(splits[0].Prefill.Nodes) != 1 || splits[0].Prefill.Nodes[0].Class != gpu.A100 {
		t.Fatalf("split 0 prefill = %+v", splits[0].Prefill.Nodes)
	}
	if len(splits[1].Decode.Nodes) != 1 || splits[1].Decode.Nodes[0].Class != gpu.T4 {
		t.Fatalf("split 1 decode = %+v", splits[1].Decode.Nodes)
	}
}

func TestPhaseSplitsHomogeneous(t *testing.T) {
	// cluster9 = 4×V100 on one node: count splits must partition the
	// devices without losing or duplicating any.
	clu := cluster.MustPreset(9)
	splits := PhaseSplits(clu)
	if len(splits) == 0 {
		t.Fatal("no splits for homogeneous cluster")
	}
	for _, sp := range splits {
		pre, dec := 0, 0
		for _, n := range sp.Prefill.Nodes {
			pre += n.Count
		}
		for _, n := range sp.Decode.Nodes {
			dec += n.Count
		}
		if pre < 1 || dec < 1 || pre+dec != 4 {
			t.Fatalf("split loses devices: prefill %d + decode %d != 4", pre, dec)
		}
		if err := sp.Prefill.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := sp.Decode.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlanDisaggregated(t *testing.T) {
	spec := model.OPT13B
	clu := cluster.MustPreset(2)
	opts := Options{Bits: []int{3, 4, 8, 16}, TimeLimit: 10 * time.Second}
	dp, err := PlanDisaggregated(context.Background(), spec, clu, ind(spec), opts, smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Prefill == nil || dp.Decode == nil || dp.PrefillReport == nil || dp.DecodeReport == nil {
		t.Fatal("incomplete disaggregated plan")
	}
	// Prefill pool: A100 devices only, high-precision weights.
	for _, st := range dp.Prefill.Stages {
		if st.Device.Spec.Class != gpu.A100 {
			t.Fatalf("prefill stage on %s, want A100", st.Device.Spec.Class)
		}
		for _, b := range st.Bits {
			if b < 8 {
				t.Fatalf("prefill pool planned %d-bit weights", b)
			}
		}
	}
	// Decode pool: V100 devices, low-bit weights, quantized KV.
	for _, st := range dp.Decode.Stages {
		if st.Device.Spec.Class != gpu.V100 {
			t.Fatalf("decode stage on %s, want V100", st.Device.Spec.Class)
		}
		for _, b := range st.Bits {
			if b > 8 {
				t.Fatalf("decode pool planned %d-bit weights", b)
			}
		}
	}
	if dp.Decode.BitKV != 8 {
		t.Fatalf("decode BitKV = %d, want 8", dp.Decode.BitKV)
	}
	// Both plans cover every layer.
	if len(dp.Prefill.Bits()) != spec.Layers || len(dp.Decode.Bits()) != spec.Layers {
		t.Fatal("phase plan does not cover all layers")
	}
}
