package tinyllm

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Weight-activation quantization support (the SmoothQuant/ZeroQuant
// family the paper integrates): when ActBits is set on a model, every
// activation tensor entering a linear operator is fake-quantized at
// runtime (per-row asymmetric, deterministic rounding), turning a
// weight-only W·A16 configuration into W·A8 (or lower).
//
// SmoothModel additionally applies real SmoothQuant scale migration: the
// per-channel activation scales are folded into the preceding LayerNorm
// gain/bias (for Q/K/V and the first MLP matrix), so the rescaling costs
// nothing at inference time — exactly the trick the original paper uses.

// SetActBits enables runtime activation fake-quantization at the given
// bitwidth (0 disables). Valid widths match the weight quantizer.
func (m *Model) SetActBits(bits int) error {
	if bits != 0 {
		if err := (quant.Scheme{Bits: bits}).Validate(); err != nil {
			return err
		}
	}
	m.actBits = bits
	return nil
}

// maybeQuantAct fake-quantizes x in place when activation quantization
// is enabled. Per-row scaling corresponds to per-token quantization, the
// standard choice for activations.
func (m *Model) maybeQuantAct(x *tensor.Matrix) *tensor.Matrix {
	if m.actBits == 0 || m.actBits >= 16 {
		return x
	}
	dq, err := quant.QuantDequant(x, quant.Scheme{Bits: m.actBits}, nil)
	if err != nil {
		// Scheme was validated in SetActBits; failure here is a bug.
		panic(fmt.Sprintf("tinyllm: activation quantization: %v", err))
	}
	return dq
}

// Smooth applies SmoothQuant migration with the given alpha to the
// attention-input and MLP-input operators of every layer, using real
// calibration activations: activation channel scales are divided into
// the preceding LayerNorm gain/bias and multiplied into the consuming
// weight rows, leaving the network function unchanged in full precision
// while flattening activation outliers for quantization.
func (m *Model) Smooth(c *Corpus, alpha float64, maxSeqs int) error {
	cal, err := m.Calibrate(c, maxSeqs)
	if err != nil {
		return err
	}
	for li, b := range m.Blocks {
		ops := b.LinearOps()
		// Each LayerNorm's output is one tap; its consumers share one
		// migration, folded into the norm.
		for _, n := range []struct {
			tap        string
			gain, bias []float32
		}{{tapAttnIn, b.LN1Gain, b.LN1Bias}, {tapMLPIn, b.LN2Gain, b.LN2Bias}} {
			var x *tensor.Matrix
			var ws []*tensor.Matrix
			for i, op := range ops {
				if op.Tap == n.tap {
					x, ws = cal[li].Ops[i].X, append(ws, *op.W)
				}
			}
			if err := smoothGroup(x, ws, n.gain, n.bias, alpha); err != nil {
				return fmt.Errorf("tinyllm: smooth layer %d %s: %w", li, n.tap, err)
			}
		}
	}
	return nil
}

// smoothGroup computes shared scales over the union of consumers and
// folds them into the upstream norm parameters.
func smoothGroup(x *tensor.Matrix, weights []*tensor.Matrix, gain, bias []float32, alpha float64) error {
	if len(weights) == 0 {
		return fmt.Errorf("no consumers")
	}
	// Shared scale: SmoothScales over a pseudo-weight whose row maxima
	// are the max across consumers, so one migration serves them all.
	in := weights[0].Rows
	pseudo := tensor.NewMatrix(in, len(weights))
	for j := 0; j < in; j++ {
		for wi, w := range weights {
			if w.Rows != in {
				return fmt.Errorf("consumer %d has %d inputs, want %d", wi, w.Rows, in)
			}
			var mx float32
			for _, v := range w.Row(j) {
				a := v
				if a < 0 {
					a = -a
				}
				if a > mx {
					mx = a
				}
			}
			pseudo.Set(j, wi, mx)
		}
	}
	scales, err := quant.SmoothScales(pseudo, x, alpha)
	if err != nil {
		return err
	}
	// Fold 1/s into the norm output (gain and bias), s into the weights.
	for j := 0; j < in; j++ {
		s := float32(scales[j])
		gain[j] /= s
		bias[j] /= s
		for _, w := range weights {
			row := w.Row(j)
			for c := range row {
				row[c] *= s
			}
		}
	}
	return nil
}
