package experiments

import (
	"context"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/tinyllm"
)

// Extensions exercises the quantization schemes the paper adopts beyond
// round-to-nearest on the real proxy backend: GPTQ error compensation
// (weight-only) and SmoothQuant activation-outlier migration (W·A4),
// reporting measured perplexity against the plain alternatives.
func Extensions(ctx context.Context) (*Result, error) {
	t := newTable("scheme", "configuration", "avg PPL")
	metrics := map[string]float64{}

	// ---- GPTQ vs RTN at 4-bit weights. ----
	p, err := getProxy("ext-proxy", 8, 4242)
	if err != nil {
		return nil, err
	}
	bits := make([]int, p.Layers())
	for i := range bits {
		bits[i] = 4
	}
	rtn, err := p.EvalBits(bits)
	if err != nil {
		return nil, err
	}
	gptq, err := p.EvalBitsGPTQ(bits)
	if err != nil {
		return nil, err
	}
	t.addf("rtn|W4A16 round-to-nearest|%.2f", rtn.PPL)
	t.addf("gptq|W4A16 error-compensated|%.2f", gptq.PPL)
	metrics["rtn_w4_ppl"] = rtn.PPL
	metrics["gptq_w4_ppl"] = gptq.PPL

	// ---- SmoothQuant for activation quantization (W16A4). ----
	cfg := tinyllm.Config{Name: "ext-sm", Layers: 8, Hidden: 64, Heads: 4, FFN: 192, Vocab: 192, MaxPos: 96}
	m, err := tinyllm.New(cfg, 77)
	if err != nil {
		return nil, err
	}
	corpus, err := m.SampleCorpus("ext", stats.NewRNG(78), 5, 48, 0.9)
	if err != nil {
		return nil, err
	}
	raw := m.Clone()
	if err := raw.SetActBits(4); err != nil {
		return nil, err
	}
	rawPPL, err := raw.Perplexity(corpus)
	if err != nil {
		return nil, err
	}
	sm := m.Clone()
	if err := sm.Smooth(corpus, 0.5, 2); err != nil {
		return nil, err
	}
	if err := sm.SetActBits(4); err != nil {
		return nil, err
	}
	smPPL, err := sm.Perplexity(corpus)
	if err != nil {
		return nil, err
	}
	fullPPL, err := m.Perplexity(corpus)
	if err != nil {
		return nil, err
	}
	t.addf("fp32|reference|%.2f", fullPPL)
	t.addf("naive-a4|W16A4 plain|%.2f", rawPPL)
	t.addf("smoothquant-a4|W16A4 with migration|%.2f", smPPL)
	metrics["fp_ppl"] = fullPPL
	metrics["plain_a4_ppl"] = rawPPL
	metrics["smooth_a4_ppl"] = smPPL

	// ---- AWQ saliency protection, operator-level output error. ----
	rng := stats.NewRNG(79)
	w := tinyRand(rng, 64, 48)
	x := tinyOutliers(rng, 48, 64)
	rtnW, err := quant.QuantDequant(w, quant.Scheme{Bits: 3}, nil)
	if err != nil {
		return nil, err
	}
	awqW, err := quant.AWQQuantize(w, x, quant.Scheme{Bits: 3})
	if err != nil {
		return nil, err
	}
	rtnErr, err := quant.WeightedReconError(w, rtnW, x)
	if err != nil {
		return nil, err
	}
	awqErr, err := quant.WeightedReconError(w, awqW, x)
	if err != nil {
		return nil, err
	}
	t.addf("rtn|W3 saliency-weighted err|%.3g", rtnErr)
	t.addf("awq|W3 saliency-weighted err|%.3g", awqErr)
	metrics["rtn_w3_werr"] = rtnErr
	metrics["awq_w3_werr"] = awqErr

	return &Result{ID: "extensions",
		Title:   "Adopted quantization schemes on the real backend (GPTQ, SmoothQuant, AWQ)",
		Text:    t.String(),
		Metrics: metrics}, nil
}

// tinyRand builds a Gaussian matrix via the shared stats RNG.
func tinyRand(rng *stats.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormMS(0, 0.05))
	}
	return m
}

// tinyOutliers builds activations with hot channels every 16th column.
func tinyOutliers(rng *stats.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			std := 0.5
			if c%16 == 0 {
				std = 20
			}
			m.Set(r, c, float32(rng.NormMS(0, std)))
		}
	}
	return m
}
