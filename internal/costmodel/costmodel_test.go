package costmodel

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/stats"
)

func fitAll(t *testing.T, class gpu.DeviceClass, m *model.Spec) *Table {
	t.Helper()
	tab := NewTable()
	ms := gpu.NewMeasurer(42)
	if err := tab.Fit(ms, gpu.MustLookup(class), m, []int{3, 4, 8, 16}); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestFitAndPredictUnseenShapes(t *testing.T) {
	// Fig. 8 methodology: fit on the calibration grid, evaluate on 50
	// unseen workloads; average error must be < 6%.
	m := model.OPT13B
	for _, class := range []gpu.DeviceClass{gpu.V100, gpu.T4} {
		tab := fitAll(t, class, m)
		dev := gpu.MustLookup(class)
		rng := stats.NewRNG(7)
		var preds, actuals []float64
		for i := 0; i < 50; i++ {
			v := []int{3, 5, 7}[rng.Intn(3)]
			s := rng.IntRange(96, 1536)
			bit := []int{3, 4, 8, 16}[rng.Intn(4)]
			p, err := tab.PredictPrefill(class, m, bit, v, s)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, p)
			actuals = append(actuals, dev.Single().Prefill(m, v, s, bit).Latency())

			ctx := []int{384, 768}[rng.Intn(2)]
			d, err := tab.PredictDecode(class, m, bit, v, ctx)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, d)
			actuals = append(actuals, dev.Single().Decode(m, v, ctx, bit, 16).Latency())
		}
		if mape := stats.MeanAbsPctError(preds, actuals); mape > 0.06 {
			t.Errorf("%s latency cost model MAPE = %.3f, want < 0.06", class, mape)
		}
	}
}

func TestPredictUnfittedErrors(t *testing.T) {
	tab := NewTable()
	if _, err := tab.PredictPrefill(gpu.V100, model.OPT13B, 16, 4, 512); err == nil {
		t.Fatal("unfitted prediction accepted")
	}
	if _, err := tab.PredictDecode(gpu.V100, model.OPT13B, 16, 4, 512); err == nil {
		t.Fatal("unfitted prediction accepted")
	}
}

func TestPredictionsMonotoneInShape(t *testing.T) {
	tab := fitAll(t, gpu.V100, model.OPT30B)
	p1, _ := tab.PredictPrefill(gpu.V100, model.OPT30B, 16, 4, 256)
	p2, _ := tab.PredictPrefill(gpu.V100, model.OPT30B, 16, 4, 1024)
	if p2 <= p1 {
		t.Fatalf("prefill prediction not increasing in s: %v vs %v", p1, p2)
	}
	d1, _ := tab.PredictDecode(gpu.V100, model.OPT30B, 16, 4, 256)
	d2, _ := tab.PredictDecode(gpu.V100, model.OPT30B, 16, 64, 256)
	if d2 <= d1 {
		t.Fatalf("decode prediction not increasing in v: %v vs %v", d1, d2)
	}
}

func TestDecodeContextInsensitivity(t *testing.T) {
	// §VI-B observation: decode latency changes noticeably only across
	// substantial context-length changes; a 50-token delta moves latency
	// by far less than a bitwidth change does.
	tab := fitAll(t, gpu.V100, model.OPT30B)
	a, _ := tab.PredictDecode(gpu.V100, model.OPT30B, 16, 8, 500)
	b, _ := tab.PredictDecode(gpu.V100, model.OPT30B, 16, 8, 550)
	c, _ := tab.PredictDecode(gpu.V100, model.OPT30B, 4, 8, 500)
	ctxDelta := (b - a) / a
	bitDelta := (a - c) / a
	if ctxDelta > 0.05 {
		t.Fatalf("50-token context delta moved decode by %.1f%%", ctxDelta*100)
	}
	if bitDelta < 0.3 {
		t.Fatalf("bitwidth change moved decode by only %.1f%%", bitDelta*100)
	}
}

func TestMemoryModelMatchesMeasurements(t *testing.T) {
	// Fig. 8: memory model error is almost negligible. Validate against
	// the noisy measurer across the paper's validation sweep.
	ms := gpu.NewMeasurer(11)
	rng := stats.NewRNG(12)
	var preds, actuals []float64
	for _, name := range []string{"bloom-560m", "bloom-1b7", "opt-13b", "opt-30b", "opt-66b"} {
		spec, err := model.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			bit := []int{3, 4, 8, 16}[rng.Intn(4)]
			v := []int{2, 4, 8}[rng.Intn(3)]
			s := rng.IntRange(128, 512)
			gen := rng.IntRange(100, 200)
			preds = append(preds, float64(spec.LayerWeightBytes(bit)))
			actuals = append(actuals, ms.MeasureWeightBytes(spec, bit))
			preds = append(preds, float64(spec.KVBytesPerLayer(v, s, gen, 16)))
			actuals = append(actuals, ms.MeasureKVBytes(spec, v, s, gen, 16))
		}
	}
	if mape := stats.MeanAbsPctError(preds, actuals); mape > 0.01 {
		t.Fatalf("memory model MAPE = %.4f, want ~0", mape)
	}
}

func TestPhaseString(t *testing.T) {
	if Prefill.String() != "prefill" || Decode.String() != "decode" {
		t.Fatal("phase names wrong")
	}
}
