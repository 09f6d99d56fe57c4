package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegistryLookup(t *testing.T) {
	s, err := Lookup("opt-30b")
	if err != nil {
		t.Fatal(err)
	}
	if s.Hidden != 7168 || s.Layers != 48 {
		t.Fatalf("opt-30b spec = %+v", s)
	}
	if _, err := Lookup("gpt-5"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if len(Names()) < 10 {
		t.Fatalf("registry too small: %v", Names())
	}
}

func TestAllSpecsValid(t *testing.T) {
	for _, name := range Names() {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDecoderLayerParams(t *testing.T) {
	// OPT-1.3B: 4·2048² + 2·2048·8192 = 16,777,216 + 33,554,432.
	want := int64(4*2048*2048 + 2*2048*8192)
	if got := OPT1B3.DecoderLayerParams(); got != want {
		t.Fatalf("params = %d, want %d", got, want)
	}
}

func TestTotalParametersApproximateModelSize(t *testing.T) {
	// Sanity: decoder parameters should land near the advertised sizes.
	cases := []struct {
		spec *Spec
		want float64 // billions
		tol  float64
	}{
		{OPT1B3, 1.3, 0.35},
		{OPT13B, 13, 2},
		{OPT30B, 30, 3},
		{OPT66B, 66, 6},
		{BLOOM3B, 3, 0.9},
		{Llama70B, 70, 14},
	}
	for _, c := range cases {
		params := float64(c.spec.DecoderLayerParams())*float64(c.spec.Layers) +
			float64(c.spec.EmbeddingBytes())/2
		b := params / 1e9
		if math.Abs(b-c.want) > c.tol {
			t.Errorf("%s: ~%.1fB params, advertised %.1fB", c.spec.Name, b, c.want)
		}
	}
}

func TestLayerWeightBytesScalesWithBits(t *testing.T) {
	s := OPT30B
	b16 := s.LayerWeightBytes(16)
	b8 := s.LayerWeightBytes(8)
	b4 := s.LayerWeightBytes(4)
	b3 := s.LayerWeightBytes(3)
	if !(b16 > b8 && b8 > b4 && b4 > b3) {
		t.Fatalf("weight bytes not monotone: %d %d %d %d", b16, b8, b4, b3)
	}
	// INT8 should be about half of FP16 (plus constant norm overhead).
	ratio := float64(b8) / float64(b16)
	if ratio < 0.49 || ratio > 0.52 {
		t.Fatalf("int8/fp16 ratio = %v", ratio)
	}
}

func TestKVBytes(t *testing.T) {
	s := OPT1B3
	// 2·v·(s+n)·h1·2 bytes at bitKV=16.
	got := s.KVBytesPerLayer(8, 512, 32, 16)
	want := int64(2 * 8 * 544 * 2048 * 2)
	if got != want {
		t.Fatalf("KV bytes = %d, want %d", got, want)
	}
	// 8-bit KV halves it.
	if got8 := s.KVBytesPerLayer(8, 512, 32, 8); got8 != want/2 {
		t.Fatalf("KV8 bytes = %d, want %d", got8, want/2)
	}
}

func TestEmbeddingBytesFP16(t *testing.T) {
	s := OPT1B3
	// token (50272·2048) + pos (2048·2048) + lm head (50272·2048), ×2 bytes.
	want := int64(50272*2048+2048*2048+50272*2048) * 2
	if got := s.EmbeddingBytes(); got != want {
		t.Fatalf("embedding bytes = %d, want %d", got, want)
	}
	// Rotary models have no position table.
	q := Qwen7B
	wantQ := int64(2*152064*3584) * 2
	if got := q.EmbeddingBytes(); got != wantQ {
		t.Fatalf("qwen embedding bytes = %d, want %d", got, wantQ)
	}
}

func TestPrefillFLOPsGrowsQuadraticallyInSeq(t *testing.T) {
	s := OPT13B
	f1 := s.LayerFLOPsPrefill(1, 512)
	f2 := s.LayerFLOPsPrefill(1, 1024)
	// Doubling seq at least doubles FLOPs; attention term grows 4×.
	if f2 < 2*f1 {
		t.Fatalf("prefill FLOPs sublinear: %v → %v", f1, f2)
	}
	lin2 := 2 * f1
	if f2 <= lin2 {
		t.Fatalf("no superlinear attention term: %v vs %v", f2, lin2)
	}
}

func TestDecodeFLOPsLinearInBatch(t *testing.T) {
	s := OPT13B
	f1 := s.DecodeWork(1, 16, 16).FLOPs(512)
	f8 := s.DecodeWork(8, 16, 16).FLOPs(512)
	if math.Abs(f8/f1-8) > 1e-9 {
		t.Fatalf("decode FLOPs not linear in v: %v", f8/f1)
	}
}

func TestArithmeticIntensityGap(t *testing.T) {
	// §IV-A: decode arithmetic intensity is orders of magnitude below
	// prefill. Check OPT-30B at v=32, s=512 roughly reproduces the
	// reported gap (decode ~tens, prefill ~thousands).
	s := OPT30B
	pre := s.LayerFLOPsPrefill(32, 512) / s.LayerMOPsPrefill(32, 512, 16)
	w := s.DecodeWork(32, 16, 16)
	dec := w.FLOPs(512) / w.Bytes(512)
	if dec > 100 {
		t.Fatalf("decode intensity %v too high", dec)
	}
	if pre < 500 {
		t.Fatalf("prefill intensity %v too low", pre)
	}
	if pre/dec < 20 {
		t.Fatalf("intensity gap %v too small", pre/dec)
	}
}

func TestQuantizationShrinksDecodeMOPs(t *testing.T) {
	s := OPT30B
	m16 := s.DecodeWork(8, 16, 16).Bytes(512)
	m4 := s.DecodeWork(8, 4, 16).Bytes(512)
	if m4 >= m16 {
		t.Fatal("4-bit decode MOPs not smaller")
	}
	if m16/m4 < 2 {
		t.Fatalf("weight-dominated decode should shrink ≥2×, got %v", m16/m4)
	}
}

func TestProfileDepthTrend(t *testing.T) {
	s := OPT1B3
	first := s.Profile(0)
	last := s.Profile(s.Layers - 1)
	if last.VarX <= first.VarX {
		t.Fatal("activation variance must grow with depth (Table I trend)")
	}
	if first.DW != s.DecoderLayerParams() {
		t.Fatalf("profile DW = %d", first.DW)
	}
}

func TestProfilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OPT1B3.Profile(24)
}

func TestTotalWeightBytesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		names := Names()
		s, err := Lookup(names[int(seed%uint64(len(names)))])
		if err != nil {
			return false
		}
		// Total = layers·layerBytes + embedding for every bitwidth.
		for _, bit := range []int{3, 4, 8, 16} {
			want := int64(s.Layers)*s.LayerWeightBytes(bit) + s.EmbeddingBytes()
			if s.TotalWeightBytes(bit) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestActivationTransferBytes(t *testing.T) {
	s := OPT1B3
	if got := s.ActivationTransferBytes(4, 128); got != int64(4*128*2048*2) {
		t.Fatalf("transfer bytes = %d", got)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := &Spec{Name: "bad", Layers: 2, Hidden: 10, FFN: 40, Heads: 3, Vocab: 100, MaxPos: 10, EmbedDim: 10}
	if err := bad.Validate(); err == nil {
		t.Fatal("hidden not divisible by heads accepted")
	}
	bad2 := &Spec{Name: "bad2", Layers: 0, Hidden: 8, FFN: 32, Heads: 2, Vocab: 100, MaxPos: 10, EmbedDim: 8}
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero layers accepted")
	}
}

func TestGQAShrinksKVCache(t *testing.T) {
	// Llama-3 70B uses 8 KV heads over 64 query heads: the KV cache is
	// 8× smaller than classic MHA would need.
	s := Llama70B
	if s.KVDim() != 1024 {
		t.Fatalf("KVDim = %d, want 1024", s.KVDim())
	}
	mha := &Spec{Name: "mha70", Layers: s.Layers, Hidden: s.Hidden, FFN: s.FFN,
		Heads: s.Heads, Vocab: s.Vocab, MaxPos: s.MaxPos, EmbedDim: s.EmbedDim, GatedMLP: true}
	ratio := float64(mha.KVBytesPerLayer(8, 1024, 64, 16)) / float64(s.KVBytesPerLayer(8, 1024, 64, 16))
	if ratio < 7.9 || ratio > 8.1 {
		t.Fatalf("GQA KV ratio = %v, want 8", ratio)
	}
}

func TestGatedMLPParams(t *testing.T) {
	// Gated MLP adds a third h1×h2 matrix.
	base := &Spec{Name: "b", Layers: 1, Hidden: 128, FFN: 512, Heads: 8,
		Vocab: 1000, MaxPos: 128, EmbedDim: 128}
	gated := &Spec{Name: "g", Layers: 1, Hidden: 128, FFN: 512, Heads: 8,
		Vocab: 1000, MaxPos: 128, EmbedDim: 128, GatedMLP: true}
	diff := gated.DecoderLayerParams() - base.DecoderLayerParams()
	if diff != 128*512 {
		t.Fatalf("gated MLP param delta = %d, want %d", diff, 128*512)
	}
	if gated.DecodeWork(1, 16, 16).FLOPs(128) <= base.DecodeWork(1, 16, 16).FLOPs(128) {
		t.Fatal("gated MLP FLOPs not larger")
	}
}

func TestKVHeadsValidation(t *testing.T) {
	bad := &Spec{Name: "bad", Layers: 1, Hidden: 128, FFN: 512, Heads: 8, KVHeads: 3,
		Vocab: 1000, MaxPos: 128, EmbedDim: 128}
	if err := bad.Validate(); err == nil {
		t.Fatal("indivisible KV heads accepted")
	}
}
