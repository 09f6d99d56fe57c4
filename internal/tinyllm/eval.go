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

// Agreement returns the fraction of next-token argmax predictions on
// which the model agrees with ref over the corpus — the reproduction's
// zero-shot-accuracy proxy (the FP16 reference scores 1.0 by
// construction; quantization lowers it).
func (m *Model) Agreement(ref *Model, c *Corpus) (float64, error) {
	want, err := ref.Predictions(c)
	if err != nil {
		return 0, err
	}
	_, agree, err := m.Score(c, want)
	return agree, err
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
// of positions whose argmax agrees with it (as Agreement; 0 for a nil
// ref).
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

// linearOps enumerates a block's quantizable linear operators.
func (b *Block) linearOps() []struct {
	name string
	w    **tensor.Matrix
} {
	return []struct {
		name string
		w    **tensor.Matrix
	}{
		{"wq", &b.Wq}, {"wk", &b.Wk}, {"wv", &b.Wv}, {"wo", &b.Wo},
		{"w1", &b.W1}, {"w2", &b.W2},
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
		for _, op := range b.linearOps() {
			dq, err := quant.QuantDequant(*op.w, s, rng)
			if err != nil {
				return nil, fmt.Errorf("tinyllm: layer %d %s: %w", li, op.name, err)
			}
			*op.w = dq
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
	type opAcc struct{ rows []*tensor.Matrix }
	acc := make([]map[string]*opAcc, m.Cfg.Layers)
	for i := range acc {
		acc[i] = map[string]*opAcc{}
	}
	tp := func(layer int, op string, x *tensor.Matrix) {
		a := acc[layer][op]
		if a == nil {
			a = &opAcc{}
			acc[layer][op] = a
		}
		a.rows = append(a.rows, x.Clone())
	}
	for _, seq := range c.Seqs[:maxSeqs] {
		if _, _, err := m.PrefillTapped(seq, tp); err != nil {
			return nil, err
		}
	}
	out := make([]quant.LayerCalibration, m.Cfg.Layers)
	for li, b := range m.Blocks {
		mk := func(op string) *tensor.Matrix {
			a := acc[li][op]
			var all []*tensor.Matrix
			if a != nil {
				all = a.rows
			}
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
		attnIn := mk("attn_in")
		out[li] = quant.LayerCalibration{Ops: []quant.Operator{
			{Name: "wq", W: b.Wq, X: attnIn},
			{Name: "wk", W: b.Wk, X: attnIn},
			{Name: "wv", W: b.Wv, X: attnIn},
			{Name: "wo", W: b.Wo, X: mk("attn_out")},
			{Name: "w1", W: b.W1, X: mk("mlp_in")},
			{Name: "w2", W: b.W2, X: mk("mlp_mid")},
		}}
	}
	return out, nil
}
