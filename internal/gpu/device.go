// Package gpu models the heterogeneous accelerators of the SplitQuant
// evaluation (NVIDIA T4, P100, V100, A100) and simulates per-layer kernel
// latencies with a roofline model: execution time is the maximum of the
// compute time (FLOPs over effective throughput at the active precision)
// and the memory time (bytes moved over effective bandwidth), plus a
// fixed kernel-launch overhead.
//
// The absolute constants are effective (sustained) rates, not datasheet
// peaks; they are tuned so the *relative* behaviour the paper measures
// holds: prefill is compute-bound and decode memory-bound, low-bit
// weights accelerate decode everywhere but slow prefill on devices
// without native low-precision paths, T4/A100 tensor cores make INT8
// competitive with FP16, and the P100/V100 single-layer ratio is much
// larger in prefill than in decode (Fig. 3).
package gpu

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// DeviceClass identifies one GPU model.
type DeviceClass string

// The device classes used across the paper's ten clusters.
const (
	T4      DeviceClass = "T4-16G"
	P100    DeviceClass = "P100-12G"
	V100    DeviceClass = "V100-32G"
	A100    DeviceClass = "A100-40G"
	A100x80 DeviceClass = "A100-80G"
)

// Spec holds the effective performance model of one device class.
type Spec struct {
	Class DeviceClass
	// MemBytes is the total device memory.
	MemBytes int64
	// ContextReserve is memory consumed by the CUDA context and
	// allocator slack, subtracted before placement (constraint 12's M_j).
	ContextReserve int64
	// FP16FLOPS is the effective sustained FP16 matmul throughput.
	FP16FLOPS float64
	// Bandwidth is the effective sustained memory bandwidth (bytes/s).
	Bandwidth float64
	// ComputeMult maps a weight bitwidth to the multiplier on FP16FLOPS
	// the device achieves at that precision (tensor-core INT8 > 1,
	// dequantization-burdened low-bit < 1). Bit 16 is implicitly 1.
	ComputeMult map[int]float64
	// LaunchOverhead is the fixed per-layer-pass kernel overhead.
	LaunchOverhead float64
	// TensorCoreINT8 reports native fast INT8 support (§II-E: T4's
	// tensor cores make 8-bit comparable to FP16).
	TensorCoreINT8 bool
}

// specs is the built-in device table.
var specs = map[DeviceClass]*Spec{
	T4: {
		Class: T4, MemBytes: 16 << 30, ContextReserve: 1 << 30,
		FP16FLOPS: 30e12, Bandwidth: 220e9,
		ComputeMult:    map[int]float64{8: 1.55, 4: 1.10, 3: 0.95},
		LaunchOverhead: 18e-6, TensorCoreINT8: true,
	},
	P100: {
		Class: P100, MemBytes: 12 << 30, ContextReserve: 1 << 30,
		// Pascal: weak FP16 path and no fused low-bit kernels; effective
		// rates are far below datasheet peaks, matching the 14.5×/7.3×
		// prefill/decode gaps against V100 reported in Fig. 3.
		FP16FLOPS: 4.1e12, Bandwidth: 100e9,
		ComputeMult:    map[int]float64{8: 0.55, 4: 0.50, 3: 0.45},
		LaunchOverhead: 30e-6,
	},
	V100: {
		Class: V100, MemBytes: 32 << 30, ContextReserve: 1 << 30,
		FP16FLOPS: 56e12, Bandwidth: 720e9,
		ComputeMult:    map[int]float64{8: 0.92, 4: 0.85, 3: 0.72},
		LaunchOverhead: 12e-6,
	},
	A100: {
		Class: A100, MemBytes: 40 << 30, ContextReserve: 1 << 30,
		FP16FLOPS: 170e12, Bandwidth: 1250e9,
		ComputeMult:    map[int]float64{8: 1.70, 4: 1.15, 3: 1.0},
		LaunchOverhead: 10e-6, TensorCoreINT8: true,
	},
	A100x80: {
		Class: A100x80, MemBytes: 80 << 30, ContextReserve: 1 << 30,
		FP16FLOPS: 170e12, Bandwidth: 1600e9,
		ComputeMult:    map[int]float64{8: 1.70, 4: 1.15, 3: 1.0},
		LaunchOverhead: 10e-6, TensorCoreINT8: true,
	},
}

// Lookup returns the spec for a device class.
func Lookup(class DeviceClass) (*Spec, error) {
	s, ok := specs[class]
	if !ok {
		return nil, fmt.Errorf("gpu: unknown device class %q (known: %v)", class, Classes())
	}
	return s, nil
}

// MustLookup is Lookup for known-constant classes; it panics on error.
func MustLookup(class DeviceClass) *Spec {
	s, err := Lookup(class)
	if err != nil {
		panic(err)
	}
	return s
}

// Classes returns the sorted registered device classes.
func Classes() []DeviceClass {
	out := make([]DeviceClass, 0, len(specs))
	for c := range specs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UsableMemory returns the memory available for weights, KV cache and
// activations after the context reserve.
func (s *Spec) UsableMemory() int64 { return s.MemBytes - s.ContextReserve }

// Derate returns a copy of the spec with compute/bandwidth scaled by
// speedScale and memory scaled by memScale — modeling co-located tenants,
// MIG slices, thermal throttling, or partially failed HBM. Scales must
// be in (0, 1]; 0 means "leave unchanged".
func (s *Spec) Derate(speedScale, memScale float64) (*Spec, error) {
	if speedScale < 0 || speedScale > 1 || memScale < 0 || memScale > 1 {
		return nil, fmt.Errorf("gpu: derate scales (%v, %v) outside (0, 1]", speedScale, memScale)
	}
	out := *s
	out.ComputeMult = make(map[int]float64, len(s.ComputeMult))
	for k, v := range s.ComputeMult {
		out.ComputeMult[k] = v
	}
	if speedScale > 0 {
		out.FP16FLOPS *= speedScale
		out.Bandwidth *= speedScale
	}
	if memScale > 0 {
		out.MemBytes = int64(float64(s.MemBytes) * memScale)
		if out.MemBytes <= out.ContextReserve {
			return nil, fmt.Errorf("gpu: derated memory %d below context reserve", out.MemBytes)
		}
	}
	return &out, nil
}

// FLOPSAt returns the effective matmul throughput with weights at the
// given bitwidth.
func (s *Spec) FLOPSAt(bit int) float64 {
	if bit >= 16 {
		return s.FP16FLOPS
	}
	m, ok := s.ComputeMult[bit]
	if !ok {
		// Unknown low-bit precision: assume a conservative dequant path.
		m = 0.5
	}
	return s.FP16FLOPS * m
}

// Supports reports whether the device can execute weights at the given
// bitwidth at all. All simulated devices support every bitwidth via the
// custom backend; the paper's 3-bit limitation applies to the vLLM
// backend, which the planner models separately.
func (s *Spec) Supports(bit int) bool {
	switch bit {
	case 3, 4, 8, 16:
		return true
	default:
		return false
	}
}

// PrefillLayerLatency returns the simulated execution time of one decoder
// layer of m processing a prefill micro-batch of v sequences of length
// seq with weights at the given bitwidth.
func (s *Spec) PrefillLayerLatency(m *model.Spec, v, seq, bit int) float64 {
	flops := m.LayerFLOPsPrefill(v, seq)
	mops := m.LayerMOPsPrefill(v, seq, bit)
	return s.roofline(flops, mops, bit)
}

// DecodeLayerLatency returns the simulated execution time of one decoder
// layer generating one token per sequence for v sequences with ctx
// cached positions: DecodeCurve(m, v, bit, bitKV).At(ctx), without
// building the curve.
func (s *Spec) DecodeLayerLatency(m *model.Spec, v, ctx, bit, bitKV int) float64 {
	return s.decodeRates(bit, 1, 0).latency(m.DecodeCost(v, ctx, bit, bitKV))
}

// DecodeCurve returns DecodeLayerLatency on the device as a function of
// the context length, for v sequences at bit and bitKV: the degree-1 case
// of TPGroup.DecodeCurve (no scaling, no all-reduce).
func (s *Spec) DecodeCurve(m *model.Spec, v, bit, bitKV int) DecodeCurve {
	return DecodeCurve{m.DecodeWork(v, bit, bitKV), s.decodeRates(bit, 1, 0)}
}

// DecodeCurve is one decoder layer's decode-step latency on a device or
// TP group for a fixed batch v, weight bitwidth and KV bitwidth, as a
// function of the context length. Within one batch only the context
// changes from step to step, so the layer's context-free work, the
// effective compute rate and bandwidth, the launch overhead and the
// all-reduce are computed once; At adds the context terms.
type DecodeCurve struct {
	work  model.DecodeWork
	rates decodeRates
}

// At returns the layer's latency at ctx cached positions.
func (c *DecodeCurve) At(ctx int) float64 {
	return c.rates.latency(c.work.FLOPs(ctx), c.work.Bytes(ctx))
}

// decodeRates are the device terms of a decode pass: the effective
// compute rate at the weight bitwidth and the bandwidth, both scaled by
// the TP group, the launch overhead and the all-reduce (0 on one
// device).
type decodeRates struct {
	flops, bandwidth, launch, allReduce float64
}

func (s *Spec) decodeRates(bit int, scale, allReduce float64) decodeRates {
	return decodeRates{s.FLOPSAt(bit) * scale, s.Bandwidth * scale, s.LaunchOverhead, allReduce}
}

// latency is the roofline of one decode pass: the larger of compute and
// memory time, plus the launch overhead, plus the all-reduce.
func (r decodeRates) latency(flops, bytes float64) float64 {
	ct := flops / r.flops
	mt := bytes / r.bandwidth
	t := ct
	if mt > t {
		t = mt
	}
	return t + r.launch + r.allReduce
}

// EmbedLatency returns the master-engine preprocessing time for a batch.
func (s *Spec) EmbedLatency(m *model.Spec, v, seq int) float64 {
	flops := m.EmbedFLOPs(v, seq)
	mops := float64(m.ActivationTransferBytes(v, seq)) * 3
	return s.roofline(flops, mops, 16)
}

// LMHeadLatency returns the logit-projection time for v sequences at one
// position (the LM head stays FP16).
func (s *Spec) LMHeadLatency(m *model.Spec, v int) float64 {
	flops := m.LMHeadFLOPs(v)
	mops := float64(m.Vocab)*float64(m.EmbedDim)*2 + float64(v*m.Vocab)*4
	return s.roofline(flops, mops, 16)
}

// roofline combines compute and memory time.
func (s *Spec) roofline(flops, bytes float64, bit int) float64 {
	ct := flops / s.FLOPSAt(bit)
	mt := bytes / s.Bandwidth
	t := ct
	if mt > t {
		t = mt
	}
	return t + s.LaunchOverhead
}
