package tinyllm

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestSetActBitsValidation(t *testing.T) {
	m := newTestModel(t)
	if err := m.SetActBits(5); err == nil {
		t.Fatal("bad activation bitwidth accepted")
	}
	if err := m.SetActBits(8); err != nil {
		t.Fatal(err)
	}
	if m.actBits != 8 {
		t.Fatalf("actBits = %d", m.actBits)
	}
	if err := m.SetActBits(0); err != nil {
		t.Fatal(err)
	}
}

func TestActQuantDegradesGracefully(t *testing.T) {
	// W16A8 sits between FP and W16A4; both are worse than full precision.
	m := newTestModel(t)
	corpus, err := m.SampleCorpus("aq", stats.NewRNG(31), 5, 40, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ppl := func(actBits int) float64 {
		c := m.Clone()
		if err := c.SetActBits(actBits); err != nil {
			t.Fatal(err)
		}
		p, err := c.Perplexity(corpus)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	full := ppl(0)
	a8 := ppl(8)
	a4 := ppl(4)
	if !(full <= a8 && a8 <= a4) {
		t.Fatalf("activation-quant PPL not monotone: fp %v, a8 %v, a4 %v", full, a8, a4)
	}
	if a4 <= full {
		t.Fatalf("4-bit activations should clearly degrade: %v vs %v", a4, full)
	}
}

func TestActBitsSurviveClone(t *testing.T) {
	m := newTestModel(t)
	if err := m.SetActBits(8); err != nil {
		t.Fatal(err)
	}
	if m.Clone().actBits != 8 {
		t.Fatal("Clone dropped activation bits")
	}
}

func TestSmoothPreservesFullPrecisionFunction(t *testing.T) {
	m := newTestModel(t)
	corpus, err := m.SampleCorpus("sm", stats.NewRNG(32), 4, 40, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.Perplexity(corpus)
	if err != nil {
		t.Fatal(err)
	}
	sm := m.Clone()
	if err := sm.Smooth(corpus, 0.5, 2); err != nil {
		t.Fatal(err)
	}
	after, err := sm.Perplexity(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-before)/before > 0.01 {
		t.Fatalf("smoothing changed full-precision PPL: %v → %v", before, after)
	}
}

func TestSmoothHelpsActivationQuantization(t *testing.T) {
	// Average over seeds: SmoothQuant migration must not hurt W·A4
	// quality and typically improves it.
	var rawSum, smSum float64
	for _, seed := range []uint64{1234, 42, 7} {
		m, err := New(testCfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		corpus, err := m.SampleCorpus("sm", stats.NewRNG(seed+5), 4, 40, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		raw := m.Clone()
		if err := raw.SetActBits(4); err != nil {
			t.Fatal(err)
		}
		rawPPL, err := raw.Perplexity(corpus)
		if err != nil {
			t.Fatal(err)
		}
		sm := m.Clone()
		if err := sm.Smooth(corpus, 0.5, 2); err != nil {
			t.Fatal(err)
		}
		if err := sm.SetActBits(4); err != nil {
			t.Fatal(err)
		}
		smPPL, err := sm.Perplexity(corpus)
		if err != nil {
			t.Fatal(err)
		}
		rawSum += rawPPL
		smSum += smPPL
	}
	if smSum > rawSum*1.02 {
		t.Fatalf("smoothing hurt W·A4 PPL on average: raw %v vs smoothed %v", rawSum/3, smSum/3)
	}
}
