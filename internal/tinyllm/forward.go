package tinyllm

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// KVCache stores the per-layer key/value tensors accumulated during
// generation; decode steps attend over it (Fig. 2's two-phase pattern).
// Each forward pass appends its rows to the layer's matrices in place, so
// a cache must not be shared between generations.
type KVCache struct {
	K []*tensor.Matrix // per layer: positions × hidden
	V []*tensor.Matrix
}

// Len returns the number of cached positions.
func (c *KVCache) Len() int { return c.lenAt(0) }

// lenAt returns the number of positions cached for layer li.
func (c *KVCache) lenAt(li int) int {
	if li >= len(c.K) || c.K[li] == nil {
		return 0
	}
	return c.K[li].Rows
}

// Tap observes the activations entering each linear operator during a
// forward pass (used to collect calibration inputs for the sensitivity
// indicators).
type Tap func(layer int, op string, x *tensor.Matrix)

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
	if cache == nil || len(cache.K) != len(m.Blocks) {
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
// appending this pass's K/V to the cache. offset is the number of
// already-cached positions preceding x. It never writes into x.
func (m *Model) blockForward(li int, b *Block, x *tensor.Matrix, cache *KVCache, offset int, tp Tap) *tensor.Matrix {
	// Attention sublayer (pre-LN).
	hN := x.Clone()
	tensor.LayerNorm(hN, b.LN1Gain, b.LN1Bias, 1e-5)
	if tp != nil {
		tp(li, "attn_in", hN)
	}
	hN = m.maybeQuantAct(hN)
	q := tensor.MatMul(hN, b.Wq)
	cache.K[li] = appendRows(cache.K[li], tensor.MatMul(hN, b.Wk))
	cache.V[li] = appendRows(cache.V[li], tensor.MatMul(hN, b.Wv))
	attnOut := m.attention(q, cache.K[li], cache.V[li], offset)
	if tp != nil {
		tp(li, "attn_out", attnOut)
	}
	attnOut = m.maybeQuantAct(attnOut)
	proj := tensor.MatMul(attnOut, b.Wo)
	x = tensor.Add(x, proj)

	// MLP sublayer.
	hN2 := x.Clone()
	tensor.LayerNorm(hN2, b.LN2Gain, b.LN2Bias, 1e-5)
	if tp != nil {
		tp(li, "mlp_in", hN2)
	}
	hN2 = m.maybeQuantAct(hN2)
	inner := tensor.MatMul(hN2, b.W1)
	tensor.GELU(inner)
	if tp != nil {
		tp(li, "mlp_mid", inner)
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

// attention computes causal multi-head attention of queries q (rows =
// new positions, preceded by offset cached ones) over keys/values k, v
// (rows = all positions so far).
//
// Each head reads its columns of q, k and v in place, and query row r
// scores only the keys it may see, j ≤ r+offset. That is bit-identical
// to scoring every key, masking the future with −∞ and multiplying the
// probabilities by v: a masked key's probability is exactly zero, it
// adds exactly zero to the softmax sum, and the p·v product skips zero
// probabilities. Every sum runs in the order tensor.MatMulTransB and
// tensor.MatMul use, and each product is converted to float32 before it
// is added, so no architecture fuses a multiply-add.
func (m *Model) attention(q, k, v *tensor.Matrix, offset int) *tensor.Matrix {
	hidden := m.Cfg.Hidden
	d := hidden / m.Cfg.Heads
	scale := float32(1 / math.Sqrt(float64(d)))
	out := tensor.NewMatrix(q.Rows, hidden)
	scores := make([]float32, k.Rows)
	for r := 0; r < q.Rows; r++ {
		qr, or := q.Row(r), out.Row(r)
		p := scores[:r+offset+1]
		for lo := 0; lo < hidden; lo += d {
			qh := qr[lo : lo+d]
			for j := range p {
				kh := k.Data[j*hidden+lo:][:len(qh)]
				var s float32
				for c, qv := range qh {
					s += float32(qv * kh[c])
				}
				p[j] = s * scale
			}
			tensor.SoftmaxRow(p)
			oh := or[lo : lo+d]
			for j, pj := range p {
				if pj == 0 {
					continue
				}
				vh := v.Data[j*hidden+lo:][:len(oh)]
				for c := range oh {
					oh[c] += float32(pj * vh[c])
				}
			}
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
