package tinyllm

import (
	"fmt"

	"repro/internal/tensor"
)

// The methods in this file expose stage-granular access to the forward
// pass so the model can be executed as a pipeline across processes
// (internal/transport): the master embeds tokens and applies the LM
// head, while each stage advances the hidden states through its
// contiguous block range with its own KV cache.

// Embed converts tokens starting at position startPos into the initial
// hidden states (len(tokens) × hidden).
func (m *Model) Embed(tokens []int, startPos int) (*tensor.Matrix, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("tinyllm: Embed with no tokens")
	}
	if startPos < 0 || startPos+len(tokens) > m.Cfg.MaxPos {
		return nil, fmt.Errorf("tinyllm: positions [%d, %d) exceed max %d", startPos, startPos+len(tokens), m.Cfg.MaxPos)
	}
	x := tensor.NewMatrix(len(tokens), m.Cfg.Hidden)
	for t, tok := range tokens {
		if tok < 0 || tok >= m.Cfg.Vocab {
			return nil, fmt.Errorf("tinyllm: token %d out of vocab %d", tok, m.Cfg.Vocab)
		}
		row := x.Row(t)
		te := m.TokEmb.Row(tok)
		pe := m.PosEmb.Row(startPos + t)
		for c := range row {
			row[c] = te[c] + pe[c]
		}
	}
	return x, nil
}

// NewCache allocates an empty KV cache sized for the model's depth.
func (m *Model) NewCache() *KVCache {
	return &KVCache{K: make([]*tensor.Matrix, len(m.Blocks)), V: make([]*tensor.Matrix, len(m.Blocks))}
}

// ForwardBlocks advances hidden states x through blocks [lo, hi),
// appending keys/values to cache. offset is the number of positions
// already cached for these blocks.
func (m *Model) ForwardBlocks(lo, hi int, x *tensor.Matrix, cache *KVCache, offset int) (*tensor.Matrix, error) {
	if lo < 0 || hi > len(m.Blocks) || lo >= hi {
		return nil, fmt.Errorf("tinyllm: block range [%d, %d) of %d", lo, hi, len(m.Blocks))
	}
	if cache == nil || len(cache.K) != len(m.Blocks) {
		return nil, fmt.Errorf("tinyllm: cache depth mismatch")
	}
	if x.Cols != m.Cfg.Hidden {
		return nil, fmt.Errorf("tinyllm: hidden width %d, want %d", x.Cols, m.Cfg.Hidden)
	}
	if n := cache.lenAt(lo); offset != n {
		return nil, fmt.Errorf("tinyllm: offset %d, but blocks [%d, %d) hold %d cached positions", offset, lo, hi, n)
	}
	for li := lo; li < hi; li++ {
		x = m.blockForward(li, m.Blocks[li], x, cache, offset, nil)
	}
	return x, nil
}

// Logits applies the final layer norm and LM head to hidden states.
func (m *Model) Logits(x *tensor.Matrix) *tensor.Matrix {
	return m.head(x)
}
