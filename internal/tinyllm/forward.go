package tinyllm

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// KVCache stores the per-layer key/value tensors accumulated during
// generation; decode steps attend over it (Fig. 2's two-phase pattern).
// Each forward pass writes its positions into the layer's matrices in
// place, so a cache must not be shared between generations, and a cache
// serves one block range: every layer in it holds the same positions.
type KVCache struct {
	// k holds each layer's keys transposed, hidden × capacity: column j
	// is position j's key, so a query row scores every position with one
	// tensor.MatMulRow per head. The capacity doubles when a pass
	// overflows it.
	k []*tensor.Matrix
	// v holds each layer's values, positions × hidden.
	v []*tensor.Matrix
	// n is the number of cached positions.
	n int
	// key holds one position's key on its way into k.
	key []float32
}

// Len returns the number of cached positions.
func (c *KVCache) Len() int { return c.n }

// Tap observes the activations entering each linear operator during a
// forward pass (used to collect calibration inputs for the sensitivity
// indicators). op names the activation, one of the tap constants below.
type Tap func(layer int, op string, x *tensor.Matrix)

// The activations a block's forward pass hands its Tap.
const (
	tapAttnIn  = "attn_in"  // LN1's output, the input of wq, wk and wv
	tapAttnOut = "attn_out" // the attention output, wo's input
	tapMLPIn   = "mlp_in"   // LN2's output, w1's input
	tapMLPMid  = "mlp_mid"  // GELU's output, w2's input
)

// Prefill runs the prompt-processing phase over tokens, returning the
// logits at every position (seq × vocab) and the populated KV cache.
func (m *Model) Prefill(tokens []int) (*tensor.Matrix, *KVCache, error) {
	return m.prefill(tokens, nil)
}

// PrefillTapped is Prefill with an activation tap.
func (m *Model) PrefillTapped(tokens []int, tap Tap) (*tensor.Matrix, *KVCache, error) {
	return m.prefill(tokens, tap)
}

func (m *Model) prefill(tokens []int, tap Tap) (*tensor.Matrix, *KVCache, error) {
	seq := len(tokens)
	if seq == 0 {
		return nil, nil, fmt.Errorf("tinyllm: empty prompt")
	}
	if seq > m.Cfg.MaxPos {
		return nil, nil, fmt.Errorf("tinyllm: prompt length %d exceeds max positions %d", seq, m.Cfg.MaxPos)
	}
	x, err := m.Embed(tokens, 0)
	if err != nil {
		return nil, nil, err
	}
	cache := m.NewCache()
	for li, b := range m.Blocks {
		x = m.blockForward(li, b, x, cache, 0, tap)
	}
	return m.head(x), cache, nil
}

// DecodeStep feeds one new token per call, attending over the cache, and
// returns the logits for the next-token distribution (1 × vocab).
func (m *Model) DecodeStep(token int, cache *KVCache) (*tensor.Matrix, error) {
	if cache == nil || len(cache.k) != len(m.Blocks) {
		return nil, fmt.Errorf("tinyllm: decode without a prefilled cache")
	}
	pos := cache.Len()
	if pos >= m.Cfg.MaxPos {
		return nil, fmt.Errorf("tinyllm: position %d exceeds max positions %d", pos, m.Cfg.MaxPos)
	}
	x, err := m.Embed([]int{token}, pos)
	if err != nil {
		return nil, err
	}
	for li, b := range m.Blocks {
		x = m.blockForward(li, b, x, cache, pos, nil)
	}
	return m.head(x), nil
}

// blockForward runs one decoder block over x (rows = new positions),
// writing this pass's K/V into the cache at positions [offset,
// offset+x.Rows). It never writes into x.
func (m *Model) blockForward(li int, b *Block, x *tensor.Matrix, cache *KVCache, offset int, tp Tap) *tensor.Matrix {
	// Attention sublayer (pre-LN).
	hN := x.Clone()
	tensor.LayerNorm(hN, b.LN1Gain, b.LN1Bias, 1e-5)
	if tp != nil {
		tp(li, tapAttnIn, hN)
	}
	hN = m.maybeQuantAct(hN)
	q := tensor.MatMul(hN, b.Wq)
	cache.appendKeys(li, hN, b.Wk, offset)
	cache.v[li] = appendRows(cache.v[li], tensor.MatMul(hN, b.Wv))
	cache.n = offset + x.Rows
	attnOut := m.attention(q, cache.k[li], cache.v[li], offset)
	if tp != nil {
		tp(li, tapAttnOut, attnOut)
	}
	attnOut = m.maybeQuantAct(attnOut)
	proj := tensor.MatMul(attnOut, b.Wo)
	x = tensor.Add(x, proj)

	// MLP sublayer.
	hN2 := x.Clone()
	tensor.LayerNorm(hN2, b.LN2Gain, b.LN2Bias, 1e-5)
	if tp != nil {
		tp(li, tapMLPIn, hN2)
	}
	hN2 = m.maybeQuantAct(hN2)
	inner := tensor.MatMul(hN2, b.W1)
	tensor.GELU(inner)
	if tp != nil {
		tp(li, tapMLPMid, inner)
	}
	inner = m.maybeQuantAct(inner)
	out := tensor.MatMul(inner, b.W2)
	return tensor.Add(x, out)
}

// appendRows grows the cache matrix c by the rows of x in place, with
// append's amortised growth, so a decode step copies only its own row. A
// nil c (an empty cache) takes x itself.
func appendRows(c, x *tensor.Matrix) *tensor.Matrix {
	if c == nil {
		return x
	}
	c.Data = append(c.Data, x.Data...)
	c.Rows += x.Rows
	return c
}

// appendKeys computes the keys x·wk of positions [n, n+x.Rows) one row
// at a time, as tensor.MatMul would, and writes them into columns [n,
// n+x.Rows) of layer li's transposed key matrix, whose first n columns
// are cached. An empty layer gets exactly x.Rows columns. When they do
// not fit, it moves the cached columns into a matrix of twice the
// capacity, or of exactly n+x.Rows columns if that is more.
func (c *KVCache) appendKeys(li int, x, wk *tensor.Matrix, n int) {
	kt := c.k[li]
	if kt == nil {
		kt = tensor.NewMatrix(wk.Cols, x.Rows)
	} else if n+x.Rows > kt.Cols {
		grown := tensor.NewMatrix(kt.Rows, max(n+x.Rows, 2*kt.Cols))
		for r := 0; r < kt.Rows; r++ {
			copy(grown.Row(r), kt.Row(r)[:n])
		}
		kt = grown
	}
	c.k[li] = kt
	for i := 0; i < x.Rows; i++ {
		tensor.MatMulRow(x.Row(i), wk.Data, c.key, wk.Cols)
		col := kt.Data[n+i:]
		for ch, v := range c.key {
			col[ch*kt.Cols] = v
		}
	}
}

// attention computes causal multi-head attention of queries q (rows =
// new positions, preceded by offset cached ones) over the transposed keys
// kt (hidden × capacity) and values v (rows = all positions so far).
//
// Query row r scores only the keys it may see, j ≤ r+offset. That is
// bit-identical to scoring every key, masking the future with −∞ and
// multiplying the probabilities by v: a masked key's probability is
// exactly zero, it adds exactly zero to the softmax sum, and the p·v
// product skips zero probabilities. For each head, the scores are one
// tensor.MatMulRow of the head's query columns over its rows of kt, and
// the output is one tensor.MatMulRow of the probabilities over its
// columns of v, both read in place: every sum runs over ascending k from
// zero, skipping zero factors, with each product rounded to float32
// before it is added, so no architecture fuses a multiply-add.
func (m *Model) attention(q, kt, v *tensor.Matrix, offset int) *tensor.Matrix {
	hidden := m.Cfg.Hidden
	d := hidden / m.Cfg.Heads
	scale := float32(1 / math.Sqrt(float64(d)))
	out := tensor.NewMatrix(q.Rows, hidden)
	scores := make([]float32, offset+q.Rows)
	for r := 0; r < q.Rows; r++ {
		qr, or := q.Row(r), out.Row(r)
		p := scores[:r+offset+1]
		for lo := 0; lo < hidden; lo += d {
			tensor.MatMulRow(qr[lo:lo+d], kt.Data[lo*kt.Cols:], p, kt.Cols)
			for j := range p {
				p[j] *= scale
			}
			tensor.SoftmaxRow(p)
			tensor.MatMulRow(p, v.Data[lo:], or[lo:lo+d], hidden)
		}
	}
	return out
}

// head applies the final layer norm and the LM-head projection.
func (m *Model) head(x *tensor.Matrix) *tensor.Matrix {
	xn := x.Clone()
	tensor.LayerNorm(xn, m.FinalGain, m.FinalBias, 1e-5)
	return tensor.MatMulTransB(xn, m.LMHead)
}
