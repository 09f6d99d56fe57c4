package tinyllm

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Corpus is a set of token sequences used for evaluation.
type Corpus struct {
	Name string
	Seqs [][]int
}

// SampleCorpus draws nSeqs sequences of seqLen tokens from the model's
// own distribution by ancestral sampling at the given temperature. A
// model evaluated on its own samples is near-optimal in perplexity, so
// weight perturbations (quantization) can only hurt — the controlled
// setting behind the quality experiments.
func (m *Model) SampleCorpus(name string, rng *stats.RNG, nSeqs, seqLen int, temperature float64) (*Corpus, error) {
	if nSeqs <= 0 || seqLen < 2 {
		return nil, fmt.Errorf("tinyllm: corpus needs nSeqs>0 and seqLen>=2")
	}
	if seqLen > m.Cfg.MaxPos {
		return nil, fmt.Errorf("tinyllm: seqLen %d exceeds max positions %d", seqLen, m.Cfg.MaxPos)
	}
	if temperature <= 0 {
		temperature = 1
	}
	c := &Corpus{Name: name}
	for s := 0; s < nSeqs; s++ {
		seq := []int{rng.Intn(m.Cfg.Vocab)}
		logits, cache, err := m.Prefill(seq)
		if err != nil {
			return nil, err
		}
		next := sampleRow(logits.Row(0), temperature, rng)
		seq = append(seq, next)
		for len(seq) < seqLen {
			lg, err := m.DecodeStep(seq[len(seq)-1], cache)
			if err != nil {
				return nil, err
			}
			next = sampleRow(lg.Row(0), temperature, rng)
			seq = append(seq, next)
		}
		c.Seqs = append(c.Seqs, seq)
	}
	return c, nil
}

// sampleRow draws a token from softmax(logits/temperature).
func sampleRow(logits []float32, temperature float64, rng *stats.RNG) int {
	scaled := make([]float32, len(logits))
	for i, v := range logits {
		scaled[i] = float32(float64(v) / temperature)
	}
	tensor.SoftmaxRow(scaled)
	w := make([]float64, len(scaled))
	for i, v := range scaled {
		w[i] = float64(v)
	}
	return rng.Choice(w)
}

// Perplexity computes teacher-forced perplexity of the model on the
// corpus: exp of the mean negative log-likelihood of each token given
// its prefix. Sequences are evaluated in parallel.
func (m *Model) Perplexity(c *Corpus) (float64, error) {
	ppl, _, err := m.Score(c, nil)
	return ppl, err
}

// Predictions returns the model's greedy next-token prediction at every
// position but the last of each corpus sequence: the reference Score
// compares a quantized model's argmaxes against.
func (m *Model) Predictions(c *Corpus) ([][]int, error) {
	out := make([][]int, len(c.Seqs))
	err := m.prefillAll(c, func(i int, logits *tensor.Matrix) {
		pred := make([]int, len(c.Seqs[i])-1)
		for t := range pred {
			pred[t] = tensor.ArgmaxRow(logits.Row(t))
		}
		out[i] = pred
	})
	return out, err
}

// Score teacher-forces the model over the corpus with one prefill per
// sequence and returns its perplexity (as Perplexity) and, when ref
// holds a reference model's Predictions on the same corpus, the fraction
// of positions whose argmax agrees with it (0 for a nil ref): the
// reproduction's zero-shot-accuracy proxy.
func (m *Model) Score(c *Corpus, ref [][]int) (ppl, agreement float64, err error) {
	nll := make([]float64, len(c.Seqs))
	match := make([]int, len(c.Seqs))
	err = m.prefillAll(c, func(i int, logits *tensor.Matrix) {
		seq := c.Seqs[i]
		for t := 1; t < len(seq); t++ {
			nll[i] -= tensor.LogSoftmaxRow(logits.Row(t-1), seq[t])
		}
		if ref != nil {
			for t, want := range ref[i] {
				if tensor.ArgmaxRow(logits.Row(t)) == want {
					match[i]++
				}
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	var n, matches int
	for i, seq := range c.Seqs {
		sum += nll[i]
		n += len(seq) - 1
		matches += match[i]
	}
	return math.Exp(sum / float64(n)), float64(matches) / float64(n), nil
}

// prefillAll prefills every corpus sequence, GOMAXPROCS at a time, and
// hands each one's logits to visit, which runs concurrently for distinct
// sequence indices.
func (m *Model) prefillAll(c *Corpus, visit func(i int, logits *tensor.Matrix)) error {
	if len(c.Seqs) == 0 {
		return fmt.Errorf("tinyllm: empty corpus")
	}
	errs := make([]error, len(c.Seqs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, seq := range c.Seqs {
		wg.Add(1)
		go func(i int, seq []int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			logits, _, err := m.Prefill(seq)
			if err != nil {
				errs[i] = err
				return
			}
			visit(i, logits)
		}(i, seq)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LinearOp is one of a block's quantizable linear operators: its name,
// its weight's place in the block, and the Tap op that captures its
// input.
type LinearOp struct {
	Name string
	W    **tensor.Matrix
	Tap  string
}

// LinearOps lists the block's quantizable linear operators in
// calibration order: wq, wk, wv, wo, w1, w2.
func (b *Block) LinearOps() []LinearOp {
	return []LinearOp{
		{"wq", &b.Wq, tapAttnIn}, {"wk", &b.Wk, tapAttnIn}, {"wv", &b.Wv, tapAttnIn},
		{"wo", &b.Wo, tapAttnOut}, {"w1", &b.W1, tapMLPIn}, {"w2", &b.W2, tapMLPMid},
	}
}

// ApplyBits returns a copy of the model whose decoder layers are
// fake-quantized to the given per-layer bitwidths (len must equal
// Layers). Embeddings and LM head stay FP16, as in §IV-A. rng is needed
// for stochastic rounding only.
func (m *Model) ApplyBits(bits []int, scheme quant.Scheme, rng *stats.RNG) (*Model, error) {
	if len(bits) != m.Cfg.Layers {
		return nil, fmt.Errorf("tinyllm: %d bitwidths for %d layers", len(bits), m.Cfg.Layers)
	}
	out := m.Clone()
	for li, b := range out.Blocks {
		s := scheme
		s.Bits = bits[li]
		if s.IsIdentity() {
			continue
		}
		for _, op := range b.LinearOps() {
			dq, err := quant.QuantDequant(*op.W, s, rng)
			if err != nil {
				return nil, fmt.Errorf("tinyllm: layer %d %s: %w", li, op.Name, err)
			}
			*op.W = dq
		}
	}
	return out, nil
}

// Calibrate runs the calibration sample through the model, capturing the
// activations entering every linear operator, and returns one
// LayerCalibration per layer — the real-X input to the variance and
// Hessian indicators of §IV-B.
func (m *Model) Calibrate(c *Corpus, maxSeqs int) ([]quant.LayerCalibration, error) {
	if len(c.Seqs) == 0 {
		return nil, fmt.Errorf("tinyllm: empty calibration corpus")
	}
	if maxSeqs <= 0 || maxSeqs > len(c.Seqs) {
		maxSeqs = len(c.Seqs)
	}
	acc := make([]map[string][]*tensor.Matrix, m.Cfg.Layers)
	for i := range acc {
		acc[i] = map[string][]*tensor.Matrix{}
	}
	tp := func(layer int, op string, x *tensor.Matrix) {
		acc[layer][op] = append(acc[layer][op], x.Clone())
	}
	for _, seq := range c.Seqs[:maxSeqs] {
		if _, _, err := m.PrefillTapped(seq, tp); err != nil {
			return nil, err
		}
	}
	out := make([]quant.LayerCalibration, m.Cfg.Layers)
	for li, b := range m.Blocks {
		// Operators that share a tap share one concatenated input.
		xs := map[string]*tensor.Matrix{}
		for _, op := range b.LinearOps() {
			x := xs[op.Tap]
			if x == nil {
				x = concatRows(acc[li][op.Tap])
				xs[op.Tap] = x
			}
			out[li].Ops = append(out[li].Ops, quant.Operator{Name: op.Name, W: *op.W, X: x})
		}
	}
	return out, nil
}

// concatRows stacks the rows of all into one matrix (0 × 0 when empty).
func concatRows(all []*tensor.Matrix) *tensor.Matrix {
	if len(all) == 0 {
		return tensor.NewMatrix(0, 0)
	}
	rows := 0
	for _, t := range all {
		rows += t.Rows
	}
	cat := tensor.NewMatrix(rows, all[0].Cols)
	r := 0
	for _, t := range all {
		copy(cat.Data[r*cat.Cols:], t.Data)
		r += t.Rows
	}
	return cat
}
