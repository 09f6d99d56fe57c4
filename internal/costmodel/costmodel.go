// Package costmodel implements SplitQuant's cost models (§IV-A).
//
// The memory model is analytic: weight, KV-cache and activation bytes
// follow closed-form expressions over the architecture dimensions
// (delegated to internal/model).
//
// The latency model is learned: for each (device, model, bitwidth,
// phase) we profile a handful of calibration shapes on the simulated
// hardware and fit ordinary least squares over the paper's phase-aware
// features — {v, s, v·s, v·s²} for the compute-bound prefill phase and
// {v, v·(t+s), (t+s)} for the memory-bound decode phase — then predict
// unseen shapes by interpolation.
package costmodel

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/stats"
)

// Phase identifies prefill or decode.
type Phase int

const (
	// Prefill is the prompt-processing phase.
	Prefill Phase = iota
	// Decode is the autoregressive token-generation phase.
	Decode
)

// String returns the phase name.
func (p Phase) String() string {
	if p == Prefill {
		return "prefill"
	}
	return "decode"
}

// prefillFeatures returns {v, s, v·s, v·s²}.
func prefillFeatures(v, s int) []float64 {
	vf, sf := float64(v), float64(s)
	return []float64{vf, sf, vf * sf, vf * sf * sf}
}

// decodeFeatures returns {v, v·(t+s), (t+s)} with ctx = t+s.
func decodeFeatures(v, ctx int) []float64 {
	vf, cf := float64(v), float64(ctx)
	return []float64{vf, vf * cf, cf}
}

// key identifies one fitted regression.
type key struct {
	class gpu.DeviceClass
	model string
	bit   int
	phase Phase
}

// Table holds fitted latency regressions for one or more devices and
// models.
type Table struct {
	models map[key]*stats.OLS
	// BitKV is the KV-cache bitwidth assumed during profiling.
	BitKV int
}

// NewTable returns an empty latency table with FP16 KV cache.
func NewTable() *Table {
	return &Table{models: make(map[key]*stats.OLS), BitKV: 16}
}

// DefaultPrefillGrid lists the calibration (v, s) shapes profiled for the
// prefill phase — common batch sizes and prompt lengths, as in §IV-A.
var DefaultPrefillGrid = []struct{ V, S int }{
	{1, 128}, {1, 512}, {1, 1024}, {2, 256}, {2, 1024}, {4, 128},
	{4, 512}, {4, 2048}, {8, 128}, {8, 512}, {8, 1024}, {16, 256},
	{16, 1024}, {32, 512}, {32, 2048}, {64, 1024},
}

// DefaultDecodeGrid lists the calibration (v, ctx) shapes for decode.
var DefaultDecodeGrid = []struct{ V, Ctx int }{
	{1, 128}, {1, 512}, {1, 2048}, {2, 256}, {4, 128}, {4, 1024},
	{8, 256}, {8, 512}, {8, 2048}, {16, 512}, {16, 4096}, {32, 512},
	{32, 1024}, {64, 2048}, {128, 1024}, {256, 2048},
}

// Fit profiles the given device for every bitwidth in bits on model m
// using the measurer (noisy simulated hardware) and fits both phase
// regressions. It returns an error when a regression is singular.
func (t *Table) Fit(ms *gpu.Measurer, dev *gpu.Spec, m *model.Spec, bits []int) error {
	for _, bit := range bits {
		var preX [][]float64
		var preY []float64
		for _, g := range DefaultPrefillGrid {
			preX = append(preX, prefillFeatures(g.V, g.S))
			preY = append(preY, ms.MeasurePrefill(dev, m, g.V, g.S, bit))
		}
		preModel, err := stats.FitOLS(preX, preY)
		if err != nil {
			return fmt.Errorf("costmodel: prefill fit %s/%s/%d: %w", dev.Class, m.Name, bit, err)
		}
		t.models[key{dev.Class, m.Name, bit, Prefill}] = preModel

		var decX [][]float64
		var decY []float64
		for _, g := range DefaultDecodeGrid {
			decX = append(decX, decodeFeatures(g.V, g.Ctx))
			decY = append(decY, ms.MeasureDecode(dev, m, g.V, g.Ctx, bit, t.BitKV))
		}
		decModel, err := stats.FitOLS(decX, decY)
		if err != nil {
			return fmt.Errorf("costmodel: decode fit %s/%s/%d: %w", dev.Class, m.Name, bit, err)
		}
		t.models[key{dev.Class, m.Name, bit, Decode}] = decModel
	}
	return nil
}

// PredictPrefill returns the fitted prefill latency of one decoder layer.
func (t *Table) PredictPrefill(class gpu.DeviceClass, m *model.Spec, bit, v, s int) (float64, error) {
	ols, ok := t.models[key{class, m.Name, bit, Prefill}]
	if !ok {
		return 0, fmt.Errorf("costmodel: no prefill model for %s/%s/bit%d", class, m.Name, bit)
	}
	p := ols.Predict(prefillFeatures(v, s))
	if p < 0 {
		p = 0
	}
	return p, nil
}

// PredictDecode returns the fitted decode latency of one decoder layer.
func (t *Table) PredictDecode(class gpu.DeviceClass, m *model.Spec, bit, v, ctx int) (float64, error) {
	ols, ok := t.models[key{class, m.Name, bit, Decode}]
	if !ok {
		return 0, fmt.Errorf("costmodel: no decode model for %s/%s/bit%d", class, m.Name, bit)
	}
	p := ols.Predict(decodeFeatures(v, ctx))
	if p < 0 {
		p = 0
	}
	return p, nil
}

// Fitted reports whether a model exists for the tuple.
func (t *Table) Fitted(class gpu.DeviceClass, m *model.Spec, bit int, phase Phase) bool {
	_, ok := t.models[key{class, m.Name, bit, phase}]
	return ok
}
