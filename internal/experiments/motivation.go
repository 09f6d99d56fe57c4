package experiments

import (
	"context"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig1 regenerates the production-fleet motivation: GPU-type shares and
// per-type monthly utilization, with the A100-vs-rest utilization gap.
func Fig1(ctx context.Context) (*Result, error) {
	tr, err := fleet.Generate(stats.NewRNG(1), fleet.DefaultShares, 12)
	if err != nil {
		return nil, err
	}
	t := newTable("gpu", "fleet share", "mean monthly util")
	for _, s := range tr.Shares {
		t.addf("%s|%.0f%%|%.0f%%", s.Class, s.Fraction*100, tr.MeanUtil(s.Class)*100)
	}
	idle := tr.IdleCapacityFraction()
	text := t.String() + fmt.Sprintf("\nidle fleet capacity: %.0f%% of GPU hours\n", idle*100)
	return &Result{
		ID:    "fig1",
		Title: "Fleet GPU mix and utilization (synthetic trace, Fig. 1 shape)",
		Text:  text,
		Metrics: map[string]float64{
			"idle_fraction": idle,
			"a100_util":     tr.MeanUtil(gpu.A100),
			"t4_util":       tr.MeanUtil(gpu.T4),
		},
	}, nil
}

// Fig3 regenerates the phase-decomposition motivation: (top) prefill vs
// decode share of end-to-end time for OPT-13B/30B at different prompt
// lengths, and (bottom) the single-layer P100/V100 execution-time ratio
// per phase.
func Fig3(ctx context.Context) (*Result, error) {
	v100 := gpu.MustLookup(gpu.V100).Single()
	p100 := gpu.MustLookup(gpu.P100).Single()

	t := newTable("model", "prompt", "prefill share", "decode share")
	type deco struct {
		spec   *model.Spec
		prompt int
	}
	for _, d := range []deco{{model.OPT13B, 1024}, {model.OPT13B, 128}, {model.OPT30B, 1024}, {model.OPT30B, 128}} {
		// Batch of 8 sequences, 32 generated tokens (paper setup).
		pre := float64(d.spec.Layers) * v100.Prefill(d.spec, 8, d.prompt, 16).Latency()
		var dec float64
		for tok := 0; tok < 32; tok++ {
			dec += float64(d.spec.Layers) * v100.Decode(d.spec, 8, d.prompt+tok, 16, 16).Latency()
		}
		total := pre + dec
		t.addf("%s|%d|%.0f%%|%.0f%%", d.spec.Name, d.prompt, pre/total*100, dec/total*100)
	}

	// Single-layer device ratios at s=512, v=8 (paper: 14.53× / 7.29×).
	spec := model.OPT30B
	preRatio := p100.Prefill(spec, 8, 512, 16).Latency() / v100.Prefill(spec, 8, 512, 16).Latency()
	decRatio := p100.Decode(spec, 8, 512, 16, 16).Latency() / v100.Decode(spec, 8, 512, 16, 16).Latency()
	text := t.String() + fmt.Sprintf(
		"\nsingle OPT-30B layer, s=512 v=8, P100 vs V100: prefill %.2fx, decode %.2fx (paper: 14.53x / 7.29x)\n",
		preRatio, decRatio)
	return &Result{
		ID:    "fig3",
		Title: "Phase time decomposition and per-device phase ratios",
		Text:  text,
		Metrics: map[string]float64{
			"p100_v100_prefill_ratio": preRatio,
			"p100_v100_decode_ratio":  decRatio,
		},
	}, nil
}

// Fig5 regenerates the precision/batch latency grid: a single OPT-30B
// layer at s=512 across bitwidths and batch sizes on T4 and V100.
func Fig5(ctx context.Context) (*Result, error) {
	spec := model.OPT30B
	t := newTable("device", "phase", "batch", "fp16 (ms)", "int8", "int4", "int3")
	devices := []gpu.DeviceClass{gpu.T4, gpu.V100}
	metrics := map[string]float64{}
	for _, class := range devices {
		dev := gpu.MustLookup(class).Single()
		for _, v := range []int{1, 8, 32} {
			var pre [4]float64
			var dec [4]float64
			for i, bit := range []int{16, 8, 4, 3} {
				pre[i] = dev.Prefill(spec, v, 512, bit).Latency() * 1e3
				dec[i] = dev.Decode(spec, v, 512, bit, 16).Latency() * 1e3
			}
			t.addf("%s|prefill|%d|%.2f|%.2f|%.2f|%.2f", class, v, pre[0], pre[1], pre[2], pre[3])
			t.addf("%s|decode|%d|%.2f|%.2f|%.2f|%.2f", class, v, dec[0], dec[1], dec[2], dec[3])
		}
		// Headline shape: decode speedup of int4 over fp16 at v=8.
		metrics[fmt.Sprintf("%s_decode_int4_speedup", class)] =
			dev.Decode(spec, 8, 512, 16, 16).Latency() / dev.Decode(spec, 8, 512, 4, 16).Latency()
		metrics[fmt.Sprintf("%s_prefill_int3_slowdown", class)] =
			dev.Prefill(spec, 8, 512, 3).Latency() / dev.Prefill(spec, 8, 512, 16).Latency()
	}
	return &Result{
		ID:      "fig5",
		Title:   "Single-layer latency across precisions and batch sizes (OPT-30B, s=512)",
		Text:    t.String(),
		Metrics: metrics,
	}, nil
}

// Fig7 regenerates the workload length distributions of CNN-DailyMail
// and LooGLE.
func Fig7(ctx context.Context) (*Result, error) {
	cnn := workload.CNNDailyMail(stats.NewRNG(7), 10000)
	loogle := workload.LooGLE(stats.NewRNG(8), 10000)
	t := newTable("workload", "avg prompt", "p95 prompt", "avg output")
	t.addf("cnn-dailymail|%.0f|%d|%.0f", cnn.AvgPrompt(), cnn.PromptPercentile(95), cnn.AvgOutput())
	t.addf("loogle|%.0f|%d|%.0f", loogle.AvgPrompt(), loogle.PromptPercentile(95), loogle.AvgOutput())
	text := t.String() + "\nShareGPT prompt-length buckets (paper §II-A):\n"
	sg := workload.ShareGPT(stats.NewRNG(9), 10000)
	buckets := workload.LengthBuckets(sg)
	for _, name := range []string{"<128", "129-512", "513-1024", "1025-2048", ">2048"} {
		text += fmt.Sprintf("  %-10s %.2f%%\n", name, buckets[name]*100)
	}
	return &Result{
		ID:    "fig7",
		Title: "Workload input/output length distributions",
		Text:  text,
		Metrics: map[string]float64{
			"cnn_avg_out":       cnn.AvgOutput(),
			"loogle_avg_prompt": loogle.AvgPrompt(),
			"loogle_avg_out":    loogle.AvgOutput(),
		},
	}, nil
}
