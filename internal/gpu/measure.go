package gpu

import (
	"repro/internal/model"
	"repro/internal/stats"
)

// Measurer produces "measured" kernel latencies: the analytic roofline
// value perturbed by deterministic multiplicative noise. It stands in for
// running calibration payloads on real hardware; the cost model
// (internal/costmodel) is fitted against these noisy observations and
// validated against held-out ones, reproducing the Fig. 8 methodology.
type Measurer struct {
	rng *stats.RNG
	// NoiseStd is the standard deviation of the multiplicative
	// log-normal-ish noise (default 3%).
	NoiseStd float64
}

// NewMeasurer returns a measurer with the given seed and 3% noise.
func NewMeasurer(seed uint64) *Measurer {
	return &Measurer{rng: stats.NewRNG(seed), NoiseStd: 0.03}
}

// perturb applies bounded multiplicative noise to t.
func (ms *Measurer) perturb(t float64) float64 {
	f := 1 + ms.rng.NormMS(0, ms.NoiseStd)
	if f < 0.85 {
		f = 0.85
	}
	if f > 1.15 {
		f = 1.15
	}
	return t * f
}

// MeasurePrefill returns a noisy observation of one prefill layer pass.
func (ms *Measurer) MeasurePrefill(s *Spec, m *model.Spec, v, seq, bit int) float64 {
	return ms.perturb(s.Single().Prefill(m, v, seq, bit).Latency())
}

// MeasureDecode returns a noisy observation of one decode layer pass.
func (ms *Measurer) MeasureDecode(s *Spec, m *model.Spec, v, ctx, bit, bitKV int) float64 {
	return ms.perturb(s.Single().Decode(m, v, ctx, bit, bitKV).Latency())
}

// MeasureWeightBytes returns a noisy observation of resident weight
// memory for one layer (allocators round to pages; noise is small).
func (ms *Measurer) MeasureWeightBytes(m *model.Spec, bit int) float64 {
	return float64(m.LayerWeightBytes(bit)) * (1 + ms.rng.NormMS(0, 0.002))
}

// MeasureKVBytes returns a noisy observation of the KV reservation.
func (ms *Measurer) MeasureKVBytes(m *model.Spec, v, seq, gen, bitKV int) float64 {
	return float64(m.KVBytesPerLayer(v, seq, gen, bitKV)) * (1 + ms.rng.NormMS(0, 0.002))
}
