// Package model describes the decoder-only LLM architectures evaluated in
// the SplitQuant paper (OPT, BLOOM, Qwen2.5, Llama-3 families) and
// implements the analytic per-layer accounting the planner relies on:
// weight bytes under a quantization bitwidth, KV-cache bytes, embedding
// and LM-head footprints, and phase-aware FLOPs/MOPs (the paper's Table
// II notation: h1, h2, v, s, t, bit, d_t, d_p, vocab_s, pos_s).
package model

import "fmt"

// Spec describes one decoder-only transformer architecture.
type Spec struct {
	// Name is the model identifier, e.g. "opt-30b".
	Name string
	// Layers is the number of decoder layers (L).
	Layers int
	// Hidden is the hidden dimension of transformer layers (h1).
	Hidden int
	// FFN is the hidden dimension of the MLP block (h2).
	FFN int
	// Heads is the number of attention heads.
	Heads int
	// KVHeads is the number of key/value heads (grouped-query
	// attention); 0 means equal to Heads (classic multi-head attention,
	// as in OPT/BLOOM).
	KVHeads int
	// Vocab is the vocabulary size (vocab_s).
	Vocab int
	// MaxPos is the maximum position embeddings (pos_s). Models using
	// rotary embeddings (Qwen, Llama) have no position table; MaxPos is
	// still used as the max supported context length.
	MaxPos int
	// EmbedDim is the word-embedding projection dimension (d_t); equal to
	// Hidden for every family here unless stated otherwise.
	EmbedDim int
	// LearnedPositions reports whether a learned position-embedding table
	// of MaxPos×EmbedDim exists (OPT/BLOOM true, Qwen/Llama false).
	LearnedPositions bool
	// GatedMLP marks SwiGLU-style MLP blocks with three matrices (gate,
	// up, down) instead of the classic two (Qwen/Llama true).
	GatedMLP bool
}

// bytesFP16 is the storage width of an unquantized parameter.
const bytesFP16 = 2

// bytesPerWeight returns the storage bytes for one weight at the given
// bitwidth — the paper's 4·bit/32 factor.
func bytesPerWeight(bit int) float64 { return float64(bit) / 8 }

// Validate checks the spec for internal consistency.
func (s *Spec) Validate() error {
	if s.Layers <= 0 || s.Hidden <= 0 || s.FFN <= 0 || s.Heads <= 0 || s.Vocab <= 0 || s.MaxPos <= 0 {
		return fmt.Errorf("model %q: non-positive dimension", s.Name)
	}
	if s.Hidden%s.Heads != 0 {
		return fmt.Errorf("model %q: hidden %d not divisible by heads %d", s.Name, s.Hidden, s.Heads)
	}
	if s.KVHeads < 0 || (s.KVHeads > 0 && s.Heads%s.KVHeads != 0) {
		return fmt.Errorf("model %q: %d heads not divisible by %d KV heads", s.Name, s.Heads, s.KVHeads)
	}
	if s.EmbedDim <= 0 {
		return fmt.Errorf("model %q: non-positive embed dim", s.Name)
	}
	return nil
}

// HeadDim returns the per-head dimension.
func (s *Spec) HeadDim() int { return s.Hidden / s.Heads }

// kvHeads returns the effective key/value head count.
func (s *Spec) kvHeads() int {
	if s.KVHeads > 0 {
		return s.KVHeads
	}
	return s.Heads
}

// KVDim returns the key/value projection width kvHeads·headDim — the
// per-position per-layer KV row size that grouped-query attention
// shrinks relative to Hidden.
func (s *Spec) KVDim() int { return s.kvHeads() * s.HeadDim() }

// mlpMatrices is 3 for gated (SwiGLU) MLPs, 2 otherwise.
func (s *Spec) mlpMatrices() int64 {
	if s.GatedMLP {
		return 3
	}
	return 2
}

// DecoderLayerParams returns the parameter count of one decoder layer's
// linear operators: Q and output projections (2·h1²), K and V
// projections (2·h1·kvDim — smaller under grouped-query attention), and
// the MLP (2·h1·h2, or 3·h1·h2 for gated MLPs). With KVHeads == Heads
// and a classic MLP this reduces to the paper's 4·h1² + 2·h1·h2.
func (s *Spec) DecoderLayerParams() int64 {
	h1, h2, kv := int64(s.Hidden), int64(s.FFN), int64(s.KVDim())
	return 2*h1*h1 + 2*h1*kv + s.mlpMatrices()*h1*h2
}

// LayerWeightBytes returns the memory (bytes) for one decoder layer's
// weights quantized to bit, per §IV-A:
// (4·h1² + 2·h1·h2)·(4·bit/32) plus the FP16 layer-norm parameters
// (4·h1 elements: two norms, gain+bias each).
func (s *Spec) LayerWeightBytes(bit int) int64 {
	lin := float64(s.DecoderLayerParams()) * bytesPerWeight(bit)
	norm := int64(4*s.Hidden) * bytesFP16
	return int64(lin) + norm
}

// EmbeddingBytes returns the FP16 memory for pre/post-processing weights
// hosted on the master/first device (M_emb of constraint 13): token
// embeddings (vocab_s·d_t), learned position embeddings (pos_s·d_p) when
// present, input/output projections (2·h1·d_t) when h1 ≠ d_t, and the LM
// head (vocab_s·d_t). Embeddings and LM head stay FP16 (§IV-A).
func (s *Spec) EmbeddingBytes() int64 {
	e := int64(s.Vocab) * int64(s.EmbedDim) * bytesFP16 // token embedding
	if s.LearnedPositions {
		e += int64(s.MaxPos) * int64(s.EmbedDim) * bytesFP16
	}
	if s.Hidden != s.EmbedDim {
		e += 2 * int64(s.Hidden) * int64(s.EmbedDim) * bytesFP16
	}
	e += int64(s.Vocab) * int64(s.EmbedDim) * bytesFP16 // LM head
	return e
}

// KVBytesPerLayer returns the KV-cache reservation for one decoder layer
// serving v concurrent sequences with prompt length seq and generation
// budget gen tokens at KV bitwidth bitKV: 2·v·(s+n)·h1·(4·bit_kv/32).
func (s *Spec) KVBytesPerLayer(v, seq, gen, bitKV int) int64 {
	return int64(float64(2*v*(seq+gen)*s.KVDim()) * bytesPerWeight(bitKV))
}

// ActivationPeakBytes estimates the worst-case transient activation
// buffer for one layer: the prefill MLP intermediate (v·s·h2) plus the
// attention score tile (v·heads·s·s capped by chunking), in FP16.
func (s *Spec) ActivationPeakBytes(v, seq int) int64 {
	mlp := int64(v) * int64(seq) * int64(s.FFN) * bytesFP16
	attn := int64(v) * int64(s.Heads) * int64(seq) * int64(seq) * bytesFP16
	// Chunked-prefill implementations bound the score tile; cap it at the
	// MLP buffer so the estimate tracks real engines with fused attention.
	if attn > mlp {
		attn = mlp
	}
	return mlp + attn
}

// StageBytes returns the placement footprint of a contiguous stage with
// per-layer bitwidths bits, serving v requests with padded prompt seq
// and generation budget gen at KV bitwidth bitKV: the M^{s·κ+n}_{i,b}
// term of the paper's memory constraints (12)-(13).
func (s *Spec) StageBytes(bits []int, v, seq, gen, bitKV int) int64 {
	var total int64
	for _, b := range bits {
		total += s.LayerWeightBytes(b) + s.KVBytesPerLayer(v, seq, gen, bitKV)
	}
	return total + s.ActivationPeakBytes(v, seq)
}

// LayerFLOPsPrefill returns the floating-point operations for one decoder
// layer processing a prefill batch of v sequences of length seq:
// projections (Q+O: 4·v·s·h1², K+V: 4·v·s·h1·kvDim), attention
// 4·v·s²·h1, MLP 4·v·s·h1·h2.
func (s *Spec) LayerFLOPsPrefill(v, seq int) float64 {
	h1, h2, kv := float64(s.Hidden), float64(s.FFN), float64(s.KVDim())
	vs := float64(v) * float64(seq)
	mlp := 2 * float64(s.mlpMatrices()) * vs * h1 * h2
	return 4*vs*h1*h1 + 4*vs*h1*kv + 4*float64(v)*float64(seq)*float64(seq)*h1 + mlp
}

// DecodeWork is the work of one decoder layer generating one token per
// sequence for v sequences, weights at bit and KV at bitKV, as a
// function of the cached context length ctx (s+t) alone. Within one
// batch only the context changes from step to step, so every term that
// does not depend on it is computed once.
//
// FLOPs: projections 4·v·h1² + 4·v·h1·kvDim, attention 4·v·ctx·h1, MLP
// 2·m·v·h1·h2 (m = 2, or 3 for gated MLPs). Bytes — the paper's "total
// number of bytes accessed" for the memory-bound decode phase: quantized
// weights once, the KV cache of ctx positions, and the (small)
// activation traffic.
type DecodeWork struct {
	flops decodeFLOPs
	bytes decodeBytes
}

// DecodeWork returns one decoder layer's decode-step work for v
// sequences with weights at bit and the KV cache at bitKV.
func (s *Spec) DecodeWork(v, bit, bitKV int) DecodeWork {
	f, b := s.decodeTerms(v, bit, bitKV)
	return DecodeWork{f, b}
}

// FLOPs returns the layer's FLOPs at ctx cached positions.
func (w DecodeWork) FLOPs(ctx int) float64 { return w.flops.at(ctx) }

// Bytes returns the bytes the layer moves at ctx cached positions.
func (w DecodeWork) Bytes(ctx int) float64 { return w.bytes.at(ctx) }

// DecodeCost returns DecodeWork(v, bit, bitKV)'s FLOPs and Bytes at ctx
// for a single context, without keeping the work.
func (s *Spec) DecodeCost(v, ctx, bit, bitKV int) (flops, bytes float64) {
	f, b := s.decodeTerms(v, bit, bitKV)
	return f.at(ctx), b.at(ctx)
}

// decodeFLOPs and decodeBytes are DecodeWork's two halves, each small
// enough to stay in registers.
type decodeFLOPs struct {
	proj, v4, h1, mlp float64 // attention FLOPs are v4·ctx·h1
}

type decodeBytes struct {
	weights float64
	kvRow   int     // 2·v·kvDim KV elements per position
	kvElem  float64 // bytes per KV element at bitKV
	act     float64
}

func (s *Spec) decodeTerms(v, bit, bitKV int) (decodeFLOPs, decodeBytes) {
	kvDim := s.KVDim()
	h1, h2, kv := float64(s.Hidden), float64(s.FFN), float64(kvDim)
	vf := float64(v)
	f := decodeFLOPs{
		proj: float64(4*vf*h1*h1) + float64(4*vf*h1*kv),
		v4:   4 * vf,
		h1:   h1,
		mlp:  2 * float64(s.mlpMatrices()) * vf * h1 * h2,
	}
	b := decodeBytes{
		weights: float64(s.DecoderLayerParams()) * bytesPerWeight(bit),
		kvRow:   2 * v * kvDim,
		kvElem:  bytesPerWeight(bitKV),
		act:     float64(v*s.Hidden) * bytesFP16 * 8, // read/write per op chain
	}
	return f, b
}

// The explicit float64 conversions in the two at methods round every
// product before it is added, so no architecture fuses a multiply-add
// and the result is the same everywhere.

func (f decodeFLOPs) at(ctx int) float64 {
	return f.proj + float64(f.v4*float64(ctx)*f.h1) + f.mlp
}

func (b decodeBytes) at(ctx int) float64 {
	return b.weights + float64(float64(b.kvRow*ctx)*b.kvElem) + b.act
}

// LayerMOPsPrefill returns the bytes moved in the prefill pass (weights
// once plus streaming activations); prefill is compute-bound so this only
// matters for the roofline crossover at tiny batch·seq.
func (s *Spec) LayerMOPsPrefill(v, seq, bit int) float64 {
	weights := float64(s.DecoderLayerParams()) * bytesPerWeight(bit)
	act := float64(v*seq*s.Hidden) * bytesFP16 * 12
	return weights + act
}

// EmbedFLOPs returns the master-engine preprocessing cost for a batch:
// token lookup is O(v·s·h1) copies; the LM-head matmul dominates
// postprocessing at 2·v·h1·vocab per generated position.
func (s *Spec) EmbedFLOPs(v, seq int) float64 {
	return float64(v) * float64(seq) * float64(s.Hidden) * 2
}

// LMHeadFLOPs returns the logit-projection cost for v sequences at one
// position.
func (s *Spec) LMHeadFLOPs(v int) float64 {
	return 2 * float64(v) * float64(s.Hidden) * float64(s.Vocab)
}

// TotalWeightBytes returns the full-model footprint at a uniform bitwidth
// (decoder layers quantized, embeddings FP16).
func (s *Spec) TotalWeightBytes(bit int) int64 {
	return int64(s.Layers)*s.LayerWeightBytes(bit) + s.EmbeddingBytes()
}

// ActivationTransferBytes returns the bytes crossing a pipeline-stage
// boundary per micro-batch: v·len·h1 FP16 activations (len = seq in
// prefill, 1 in decode).
func (s *Spec) ActivationTransferBytes(v, length int) int64 {
	return int64(v) * int64(length) * int64(s.Hidden) * bytesFP16
}
