package eval

import (
	"fmt"

	"repro/internal/quant"
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
		for oi, op := range b.LinearOps() {
			// tinyllm weights are input-major (in × out); GPTQ expects
			// out × in with calibration over the input dimension, so
			// transpose around the call.
			wq, err := quant.GPTQQuantize((*op.W).Transpose(), cal[li].Ops[oi].X, s, quant.GPTQOptions{ActOrder: true})
			if err != nil {
				return QualityResult{}, fmt.Errorf("eval: gptq layer %d op %s: %w", li, op.Name, err)
			}
			*op.W = wq.Transpose()
		}
	}
	return p.quality(qm)
}
