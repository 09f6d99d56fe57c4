package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/stats"
)

// Fig8 regenerates the cost-model fidelity experiment: the memory model
// against noisy "measured" footprints across the paper's validation
// sweep (BLOOM-560m/1b7, OPT-13b/30b/66b), and the fitted latency model
// against 50 unseen workloads per device.
func Fig8(ctx context.Context) (*Result, error) {
	ms := gpu.NewMeasurer(1001)
	rng := stats.NewRNG(1002)

	// Memory fidelity (paper: error almost negligible).
	var memPred, memActual []float64
	for _, name := range []string{"bloom-560m", "bloom-1b7", "opt-13b", "opt-30b", "opt-66b"} {
		spec, err := model.Lookup(name)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 20; i++ {
			bit := core.CandidateBits[rng.Intn(len(core.CandidateBits))]
			v := []int{2, 4, 8}[rng.Intn(3)]
			s := rng.IntRange(128, 512)
			gen := rng.IntRange(100, 200)
			memPred = append(memPred, float64(spec.LayerWeightBytes(bit)), float64(spec.KVBytesPerLayer(v, s, gen, 16)))
			memActual = append(memActual, ms.MeasureWeightBytes(spec, bit), ms.MeasureKVBytes(spec, v, s, gen, 16))
		}
	}
	memMAPE := stats.MeanAbsPctError(memPred, memActual)

	// Latency fidelity: fit per device, test on 50 unseen workloads
	// (batch 3/5/7, past lengths 384/768, random precisions).
	t := newTable("device", "memory MAPE", "latency MAPE")
	metrics := map[string]float64{"memory_mape": memMAPE}
	var worst float64
	for _, class := range []gpu.DeviceClass{gpu.T4, gpu.P100, gpu.V100, gpu.A100} {
		dev := gpu.MustLookup(class)
		spec := model.OPT13B
		tab := costmodel.NewTable()
		if err := tab.Fit(gpu.NewMeasurer(uint64(2000)+uint64(len(class))), dev, spec, core.CandidateBits); err != nil {
			return nil, err
		}
		var preds, actuals []float64
		wrng := stats.NewRNG(3000)
		for i := 0; i < 50; i++ {
			v := []int{3, 5, 7}[wrng.Intn(3)]
			s := wrng.IntRange(96, 1024)
			bit := core.CandidateBits[wrng.Intn(len(core.CandidateBits))]
			p, err := tab.PredictPrefill(class, spec, bit, v, s)
			if err != nil {
				return nil, err
			}
			preds = append(preds, p)
			actuals = append(actuals, dev.PrefillLayerLatency(spec, v, s, bit))
			ctx := []int{384, 768}[wrng.Intn(2)]
			d, err := tab.PredictDecode(class, spec, bit, v, ctx)
			if err != nil {
				return nil, err
			}
			preds = append(preds, d)
			actuals = append(actuals, dev.DecodeLayerLatency(spec, v, ctx, bit, 16))
		}
		mape := stats.MeanAbsPctError(preds, actuals)
		if mape > worst {
			worst = mape
		}
		t.addf("%s|%.3f%%|%.2f%%", class, memMAPE*100, mape*100)
		metrics[fmt.Sprintf("%s_latency_mape", class)] = mape
	}
	metrics["worst_latency_mape"] = worst
	text := t.String() + fmt.Sprintf("\npaper target: memory error ~0, average latency error < 6%% (worst here: %.2f%%)\n", worst*100)
	return &Result{
		ID:      "fig8",
		Title:   "Cost-model fidelity: predicted vs measured memory and latency",
		Text:    text,
		Metrics: metrics,
	}, nil
}
