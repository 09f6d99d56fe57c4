package eval

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/tinyllm"
)

// EvalBitsGPTQ measures quality under a per-layer bit assignment with
// GPTQ error-compensated quantization instead of round-to-nearest: each
// linear operator is quantized against its real calibration activations
// (the paper's GPTQ kernels). Embeddings and the LM head stay FP16.
func (p *Proxy) EvalBitsGPTQ(bits []int) (QualityResult, error) {
	if len(bits) != p.Layers() {
		return QualityResult{}, fmt.Errorf("eval: %d bitwidths for %d layers", len(bits), p.Layers())
	}
	qm := p.Model.Clone()
	for li, b := range qm.Blocks {
		bit := bits[li]
		if bit >= 16 {
			continue
		}
		// Sequential calibration, as in the original algorithm: collect
		// this layer's inputs from the partially *quantized* model so
		// compensation accounts for upstream quantization drift.
		cal, err := qm.Calibrate(p.Corpora[0], 2)
		if err != nil {
			return QualityResult{}, err
		}
		s := quant.Scheme{Bits: bit}
		for oi, op := range cal[li].Ops {
			// tinyllm weights are input-major (in × out); GPTQ expects
			// out × in with calibration over the input dimension, so
			// transpose around the call.
			w := blockWeight(b, oi)
			wq, err := quant.GPTQQuantize(w.Transpose(), op.X, s, quant.GPTQOptions{ActOrder: true})
			if err != nil {
				return QualityResult{}, fmt.Errorf("eval: gptq layer %d op %s: %w", li, op.Name, err)
			}
			*blockWeightPtr(b, oi) = wq.Transpose()
		}
	}
	return p.quality(qm)
}

// The helpers below index a block's linear operators in the calibration
// order (wq, wk, wv, wo, w1, w2).

func blockWeight(b *tinyllm.Block, op int) *tensor.Matrix {
	switch op {
	case 0:
		return b.Wq
	case 1:
		return b.Wk
	case 2:
		return b.Wv
	case 3:
		return b.Wo
	case 4:
		return b.W1
	default:
		return b.W2
	}
}

func blockWeightPtr(b *tinyllm.Block, op int) **tensor.Matrix {
	switch op {
	case 0:
		return &b.Wq
	case 1:
		return &b.Wk
	case 2:
		return &b.Wv
	case 3:
		return &b.Wo
	case 4:
		return &b.W1
	default:
		return &b.W2
	}
}
