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

// PrefillLayerLatency is the TP analogue of Spec.PrefillLayerLatency.
func (g *TPGroup) PrefillLayerLatency(m *model.Spec, v, seq, bit int) float64 {
	base := m.LayerFLOPsPrefill(v, seq) / (g.Spec.FLOPSAt(bit) * g.scale())
	mem := m.LayerMOPsPrefill(v, seq, bit) / (g.Spec.Bandwidth * g.scale())
	t := base
	if mem > t {
		t = mem
	}
	return t + g.Spec.LaunchOverhead + g.allReduce(float64(m.ActivationTransferBytes(v, seq)))
}

// DecodeLayerLatency is the TP analogue of Spec.DecodeLayerLatency.
func (g *TPGroup) DecodeLayerLatency(m *model.Spec, v, ctx, bit, bitKV int) float64 {
	return g.decodeRates(m, v, bit).latency(m.DecodeCost(v, ctx, bit, bitKV))
}

// DecodeCurve is the TP analogue of Spec.DecodeCurve.
func (g *TPGroup) DecodeCurve(m *model.Spec, v, bit, bitKV int) DecodeCurve {
	return DecodeCurve{m.DecodeWork(v, bit, bitKV), g.decodeRates(m, v, bit)}
}

// decodeRates scales compute and bandwidth with the group, and every
// pass pays the all-reduce of one token's activations.
func (g *TPGroup) decodeRates(m *model.Spec, v, bit int) decodeRates {
	return g.Spec.decodeRates(bit, g.scale(), g.allReduce(float64(m.ActivationTransferBytes(v, 1))))
}
