package gpu

import (
	"fmt"

	"repro/internal/model"
)

// TPGroup aggregates k identical devices into one tensor-parallel logical
// device (intra-node only, per §II-B). Compute and bandwidth scale with
// group size at an efficiency below 1, and every layer pass pays two
// all-reduce steps over the intra-node interconnect.
type TPGroup struct {
	Spec *Spec
	// Degree is the number of devices in the group (k).
	Degree int
	// LinkBandwidth is the per-direction intra-node interconnect
	// bandwidth (NVLink within a node in the paper's clusters).
	LinkBandwidth float64
	// Efficiency scales the ideal k× throughput (default 0.9).
	Efficiency float64
}

// NewTPGroup builds a TP group over degree devices of the given class.
func NewTPGroup(spec *Spec, degree int, linkBW float64) (*TPGroup, error) {
	if degree < 1 {
		return nil, fmt.Errorf("gpu: TP degree %d", degree)
	}
	if linkBW <= 0 && degree > 1 {
		return nil, fmt.Errorf("gpu: TP group needs a positive link bandwidth")
	}
	return &TPGroup{Spec: spec, Degree: degree, LinkBandwidth: linkBW, Efficiency: 0.9}, nil
}

// UsableMemory returns the aggregate usable memory of the group; weights
// and KV cache shard evenly across TP ranks.
func (g *TPGroup) UsableMemory() int64 {
	return int64(g.Degree) * g.Spec.UsableMemory()
}

// scale returns the effective speedup of the group over one device.
func (g *TPGroup) scale() float64 {
	if g.Degree == 1 {
		return 1
	}
	return g.Efficiency * float64(g.Degree)
}

// allReduce returns the time of the two per-layer all-reduce steps on an
// activation of the given byte size, using the ring formula
// 2·(k-1)/k·bytes per direction, twice per layer.
func (g *TPGroup) allReduce(bytes float64) float64 {
	if g.Degree == 1 {
		return 0
	}
	k := float64(g.Degree)
	return 2 * (2 * (k - 1) / k * bytes / g.LinkBandwidth)
}

// rates returns the group's device terms at weight bitwidth bit for a
// pass whose all-reduce carries arBytes of activations: compute and
// bandwidth scale with the group, and the all-reduce is 0 at degree 1.
func (g *TPGroup) rates(bit int, arBytes int64) rates {
	return g.Spec.rates(bit, g.scale(), g.allReduce(float64(arBytes)))
}

// Prefill is one decoder layer of m processing a prefill micro-batch of
// v sequences of length seq with weights at the given bitwidth.
func (g *TPGroup) Prefill(m *model.Spec, v, seq, bit int) Pass {
	return Pass{m.LayerFLOPsPrefill(v, seq), m.LayerMOPsPrefill(v, seq, bit), g.rates(bit, m.ActivationTransferBytes(v, seq))}
}

// Decode is one decoder layer generating one token per sequence for v
// sequences with ctx cached positions; its latency is
// DecodeCurve(m, v, bit, bitKV).At(ctx), without building the curve.
func (g *TPGroup) Decode(m *model.Spec, v, ctx, bit, bitKV int) Pass {
	flops, bytes := m.DecodeCost(v, ctx, bit, bitKV)
	return Pass{flops, bytes, g.rates(bit, m.ActivationTransferBytes(v, 1))}
}

// DecodeCurve returns Decode's latency as a function of the context
// length, for v sequences at bit and bitKV.
func (g *TPGroup) DecodeCurve(m *model.Spec, v, bit, bitKV int) DecodeCurve {
	return DecodeCurve{m.DecodeWork(v, bit, bitKV), g.rates(bit, m.ActivationTransferBytes(v, 1))}
}

// The master engine's passes, Embed and LMHead, stay FP16 and run on
// one device of the group: no TP scaling and no all-reduce.

// Embed is the master engine's preprocessing of a batch of v sequences
// of length seq.
func (g *TPGroup) Embed(m *model.Spec, v, seq int) Pass {
	return Pass{m.EmbedFLOPs(v, seq), float64(m.ActivationTransferBytes(v, seq)) * 3, g.Spec.rates(16, 1, 0)}
}

// LMHead is the logit projection for v sequences at one position.
func (g *TPGroup) LMHead(m *model.Spec, v int) Pass {
	bytes := float64(float64(m.Vocab)*float64(m.EmbedDim))*2 + float64(float64(v*m.Vocab)*4)
	return Pass{m.LMHeadFLOPs(v), bytes, g.Spec.rates(16, 1, 0)}
}
