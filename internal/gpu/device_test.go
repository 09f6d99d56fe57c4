package gpu

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/stats"
)

func TestLookup(t *testing.T) {
	for _, c := range []DeviceClass{T4, P100, V100, A100} {
		s, err := Lookup(c)
		if err != nil {
			t.Fatal(err)
		}
		if s.UsableMemory() <= 0 || s.UsableMemory() >= s.MemBytes {
			t.Fatalf("%s usable memory %d", c, s.UsableMemory())
		}
	}
	if _, err := Lookup("H100"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestDeviceOrderingFP16(t *testing.T) {
	// A100 > V100 > T4 > P100 in effective FP16 compute.
	a, v, t4, p := MustLookup(A100), MustLookup(V100), MustLookup(T4), MustLookup(P100)
	if !(a.FP16FLOPS > v.FP16FLOPS && v.FP16FLOPS > t4.FP16FLOPS && t4.FP16FLOPS > p.FP16FLOPS) {
		t.Fatal("FP16 compute ordering broken")
	}
	if !(a.Bandwidth > v.Bandwidth && v.Bandwidth > t4.Bandwidth && t4.Bandwidth > p.Bandwidth) {
		t.Fatal("bandwidth ordering broken")
	}
}

func TestFig3PhaseRatios(t *testing.T) {
	// Fig. 3: a single OPT-30B layer at s=512, v=8 runs ~14.5× slower on
	// P100 than V100 in prefill, ~7.3× in decode. We require the shape:
	// both ratios ≫ 1 and the prefill ratio clearly exceeds decode.
	m := model.OPT30B
	p, v := MustLookup(P100), MustLookup(V100)
	preRatio := p.Single().Prefill(m, 8, 512, 16).Latency() / v.Single().Prefill(m, 8, 512, 16).Latency()
	decRatio := p.Single().Decode(m, 8, 512, 16, 16).Latency() / v.Single().Decode(m, 8, 512, 16, 16).Latency()
	if preRatio < 8 || preRatio > 22 {
		t.Fatalf("prefill P100/V100 ratio = %.2f, want ~14.5", preRatio)
	}
	if decRatio < 4 || decRatio > 12 {
		t.Fatalf("decode P100/V100 ratio = %.2f, want ~7.3", decRatio)
	}
	if preRatio <= decRatio {
		t.Fatalf("prefill ratio %.2f must exceed decode ratio %.2f", preRatio, decRatio)
	}
}

func TestPhasesComputeVsMemoryBound(t *testing.T) {
	// Prefill should be compute-bound, decode memory-bound, on V100 with
	// a realistic shape.
	m := model.OPT30B
	v := MustLookup(V100)
	flopsTime := m.LayerFLOPsPrefill(8, 512) / v.FLOPSAt(16)
	memTime := m.LayerMOPsPrefill(8, 512, 16) / v.Bandwidth
	if flopsTime <= memTime {
		t.Fatalf("prefill not compute-bound: compute %v vs mem %v", flopsTime, memTime)
	}
	w := m.DecodeWork(8, 16, 16)
	dFlops := w.FLOPs(512) / v.FLOPSAt(16)
	dMem := w.Bytes(512) / v.Bandwidth
	if dMem <= dFlops {
		t.Fatalf("decode not memory-bound: compute %v vs mem %v", dFlops, dMem)
	}
}

func TestQuantizationSpeedsUpDecodeEverywhere(t *testing.T) {
	// Fig. 5 shape: 4-bit decode is faster than FP16 decode on every
	// device (memory-bound → fewer weight bytes wins).
	m := model.OPT30B
	for _, c := range []DeviceClass{T4, P100, V100, A100} {
		s := MustLookup(c)
		t16 := s.Single().Decode(m, 8, 512, 16, 16).Latency()
		t4b := s.Single().Decode(m, 8, 512, 4, 16).Latency()
		if t4b >= t16 {
			t.Errorf("%s: 4-bit decode %v not faster than fp16 %v", c, t4b, t16)
		}
	}
}

func TestLowBitPrefillSlowerOnNonTensorCoreDevices(t *testing.T) {
	// Fig. 5 shape: FP16 retains its prefill advantage over 3/4-bit on
	// V100/P100 (dequant overhead), while T4's INT8 stays comparable.
	m := model.OPT30B
	for _, c := range []DeviceClass{P100, V100} {
		s := MustLookup(c)
		t16 := s.Single().Prefill(m, 8, 512, 16).Latency()
		t3 := s.Single().Prefill(m, 8, 512, 3).Latency()
		if t3 <= t16 {
			t.Errorf("%s: 3-bit prefill %v should be slower than fp16 %v", c, t3, t16)
		}
	}
	t4 := MustLookup(T4)
	r := t4.Single().Prefill(m, 8, 512, 8).Latency() / t4.Single().Prefill(m, 8, 512, 16).Latency()
	if r > 1.05 {
		t.Errorf("T4 int8/fp16 prefill ratio = %v, want comparable or better", r)
	}
}

func TestInt8FasterPrefillOnTensorCores(t *testing.T) {
	for _, c := range []DeviceClass{T4, A100} {
		s := MustLookup(c)
		if !s.TensorCoreINT8 {
			t.Fatalf("%s should report tensor-core INT8", c)
		}
		if s.FLOPSAt(8) <= s.FLOPSAt(16) {
			t.Errorf("%s INT8 throughput not above FP16", c)
		}
	}
}

func TestLatencyMonotoneInBatchProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		classes := []DeviceClass{T4, P100, V100, A100}
		s := MustLookup(classes[r.Intn(len(classes))])
		m := model.OPT13B
		v := r.IntRange(1, 16)
		seq := r.IntRange(64, 1024)
		bit := []int{3, 4, 8, 16}[r.Intn(4)]
		// More sequences can never be faster.
		if s.Single().Prefill(m, 2*v, seq, bit).Latency() < s.Single().Prefill(m, v, seq, bit).Latency() {
			return false
		}
		if s.Single().Decode(m, 2*v, seq, bit, 16).Latency() < s.Single().Decode(m, v, seq, bit, 16).Latency() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTPGroupScaling(t *testing.T) {
	v := MustLookup(V100)
	g1, err := NewTPGroup(v, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g4, err := NewTPGroup(v, 4, 150e9)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Llama70B
	t1 := g1.Prefill(m, 8, 512, 16).Latency()
	t4 := g4.Prefill(m, 8, 512, 16).Latency()
	if t4 >= t1 {
		t.Fatalf("TP4 %v not faster than TP1 %v", t4, t1)
	}
	if t1/t4 > 4 {
		t.Fatalf("TP4 superlinear speedup %v", t1/t4)
	}
	if g4.UsableMemory() != 4*v.UsableMemory() {
		t.Fatal("TP memory does not aggregate")
	}
}

func TestTPGroupAllReduceOverheadAtSmallShapes(t *testing.T) {
	// At tiny decode shapes the all-reduce overhead must keep TP speedup
	// well below linear.
	v := MustLookup(V100)
	g2, _ := NewTPGroup(v, 2, 150e9)
	g1, _ := NewTPGroup(v, 1, 0)
	m := model.OPT13B
	s1 := g1.Decode(m, 1, 128, 16, 16).Latency()
	s2 := g2.Decode(m, 1, 128, 16, 16).Latency()
	if s1/s2 > 1.9 {
		t.Fatalf("TP2 tiny-shape speedup %v too close to linear", s1/s2)
	}
}

func TestNewTPGroupErrors(t *testing.T) {
	v := MustLookup(V100)
	if _, err := NewTPGroup(v, 0, 1); err == nil {
		t.Fatal("degree 0 accepted")
	}
	if _, err := NewTPGroup(v, 2, 0); err == nil {
		t.Fatal("TP>1 without link bandwidth accepted")
	}
}

func TestMeasurerNoiseBounded(t *testing.T) {
	ms := NewMeasurer(7)
	s := MustLookup(V100)
	m := model.OPT13B
	base := s.Single().Prefill(m, 8, 512, 16).Latency()
	for i := 0; i < 200; i++ {
		got := ms.MeasurePrefill(s, m, 8, 512, 16)
		if got < base*0.84 || got > base*1.16 {
			t.Fatalf("measurement %v outside noise bounds of %v", got, base)
		}
	}
}

func TestMeasurerDeterministic(t *testing.T) {
	s := MustLookup(T4)
	m := model.OPT13B
	a := NewMeasurer(3).MeasureDecode(s, m, 4, 256, 8, 16)
	b := NewMeasurer(3).MeasureDecode(s, m, 4, 256, 8, 16)
	if a != b {
		t.Fatal("measurer not deterministic for equal seeds")
	}
}

func TestEmbedAndLMHeadLatencyPositive(t *testing.T) {
	s := MustLookup(A100)
	m := model.OPT30B
	if s.Single().Embed(m, 8, 512).Latency() <= 0 || s.Single().LMHead(m, 8).Latency() <= 0 {
		t.Fatal("non-positive master-engine latency")
	}
	// LM head on a big vocab should dwarf embedding lookup cost.
	if s.Single().LMHead(m, 8).Latency() < s.Single().Embed(m, 8, 1).Latency() {
		t.Fatal("LM head cheaper than embedding lookup")
	}
}
