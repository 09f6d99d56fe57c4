package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table6 regenerates the optimizer-scaling study: layer grouping at two
// granularities versus the bitwidth-transfer heuristic, comparing both
// the resulting throughput and the planning overhead, under a per-solve
// ILP budget (the paper uses 60 s; we use a tighter budget so the whole
// suite stays fast — the ranking is what matters).
func Table6(ctx context.Context) (*Result, error) {
	cases := []struct {
		clusterN int
		modelN   string
		B        int
	}{
		{5, "opt-30b", 32}, {6, "opt-30b", 16}, {9, "opt-66b", 32},
	}
	t := newTable("cluster", "model", "method", "tkn/s", "overhead (s)")
	metrics := map[string]float64{}
	for _, c := range cases {
		spec, err := model.Lookup(c.modelN)
		if err != nil {
			return nil, err
		}
		clu := cluster.MustPreset(c.clusterN)
		batch, err := synthBatch("fixed", c.B, 2048)
		if err != nil {
			return nil, err
		}
		type variant struct {
			label string
			opts  core.Options
		}
		mkILP := func(group int) core.Options {
			o := fastOpts(core.MethodILP, 1)
			o.GroupSize = group
			o.TimeLimit = 3 * time.Second
			o.MaxNodes = 30
			return o
		}
		variants := []variant{
			{"group=8", mkILP(8)},
			{"group=4", mkILP(4)},
			{"heuristic", fastOpts(core.MethodHeuristic, 1)},
		}
		for _, v := range variants {
			start := time.Now()
			tp, _, err := methodRun(ctx, spec, clu, batch, v.opts)
			if err != nil {
				return nil, err
			}
			overhead := time.Since(start).Seconds()
			t.addf("%d|%s|%s|%s|%.2f", c.clusterN, c.modelN, v.label, tps(tp), overhead)
			metrics[fmt.Sprintf("c%d/%s/tps", c.clusterN, v.label)] = tp
			metrics[fmt.Sprintf("c%d/%s/overhead", c.clusterN, v.label)] = overhead
		}
	}
	return &Result{ID: "table6",
		Title:   "Optimizer scaling: layer grouping vs bitwidth-transfer heuristic (Table VI)",
		Text:    t.String(),
		Metrics: metrics}, nil
}

// Fig11 regenerates the θ-sensitivity study: throughput and model
// quality as the quality scalar sweeps over {0.1×, 1×, 10×} of the tuned
// value, on cluster 7 / OPT-66B and cluster 8 / OPT-30B. Quality is
// reported both as the planner's Σω and as real proxy perplexity of the
// chosen bit assignment.
func Fig11(ctx context.Context) (*Result, error) {
	cases := []struct {
		clusterN  int
		modelN    string
		batch     workload.Batch
		proxyName string
		proxyL    int
		proxySeed uint64
	}{
		// Workloads chosen so the precision choice is consequential:
		// memory pressure on cluster 7, decode-heavy generation on
		// cluster 8 (where low-bit weights are faster but lossier).
		{7, "opt-66b", workload.Batch{Size: 32, ChunkLen: 512, Chunks: 1, GenTokens: 32}, "opt-66b-proxy", 16, 66},
		{8, "opt-30b", workload.Batch{Size: 32, ChunkLen: 128, Chunks: 1, GenTokens: 128}, "opt-30b-proxy", 12, 31},
	}
	t := newTable("cluster", "model", "theta", "tkn/s", "quality Σω", "proxy PPL")
	metrics := map[string]float64{}
	for _, c := range cases {
		spec, err := model.Lookup(c.modelN)
		if err != nil {
			return nil, err
		}
		clu := cluster.MustPreset(c.clusterN)
		batch := c.batch
		proxy, err := getProxy(c.proxyName, c.proxyL, c.proxySeed)
		if err != nil {
			return nil, err
		}
		for _, mult := range []float64{0.01, 0.1, 1, 10} {
			theta := 10 * mult // tuned θ is 10 on the normalized indicator
			opts := fastOpts(core.MethodHeuristic, theta)
			ind := core.ProfileIndicator(spec, core.CandidateBits, quant.Deterministic)
			a, err := core.New(spec, clu, ind, opts)
			if err != nil {
				return nil, err
			}
			p, _, err := a.Plan(ctx, batch)
			if err != nil {
				return nil, err
			}
			res, err := pipeline.Simulate(p, spec, clu, batch)
			if err != nil {
				return nil, err
			}
			q, err := proxy.EvalBits(eval.MapBits(p.Bits(), c.proxyL))
			if err != nil {
				return nil, err
			}
			t.addf("%d|%s|%.2fx|%.1f|%.3f|%.2f", c.clusterN, c.modelN, mult, res.Throughput, p.QualityPenalty, q.PPL)
			metrics[fmt.Sprintf("c%d/theta%.1f/tps", c.clusterN, theta)] = res.Throughput
			metrics[fmt.Sprintf("c%d/theta%.1f/quality", c.clusterN, theta)] = p.QualityPenalty
			metrics[fmt.Sprintf("c%d/theta%.1f/ppl", c.clusterN, theta)] = q.PPL
		}
	}
	return &Result{ID: "fig11",
		Title:   "Sensitivity to the quality scalar θ (Fig. 11)",
		Text:    t.String() + "\nlarger θ → lower throughput, better quality\n",
		Metrics: metrics}, nil
}

// Fig12 regenerates the pure-adaptive-quantization ablation: adabits
// (quality-only bit assignment, memory-balanced partition) versus the
// full joint optimization, on clusters 5-8.
func Fig12(ctx context.Context) (*Result, error) {
	cases := []struct {
		clusterN int
		modelN   string
	}{
		{5, "opt-30b"}, {6, "opt-30b"}, {7, "opt-66b"}, {8, "opt-30b"},
	}
	t := newTable("cluster", "model", "adabits", "splitquant", "speedup")
	metrics := map[string]float64{}
	var speedups []float64
	for _, c := range cases {
		spec, err := model.Lookup(c.modelN)
		if err != nil {
			return nil, err
		}
		clu := cluster.MustPreset(c.clusterN)
		batch, err := synthBatch("fixed", 32, 2048)
		if err != nil {
			return nil, err
		}
		ada, _, err := methodRun(ctx, spec, clu, batch, fastOpts(core.MethodAdabits, 1))
		if err != nil {
			return nil, err
		}
		sq, _, err := methodRun(ctx, spec, clu, batch, fastOpts(core.MethodHeuristic, 1))
		if err != nil {
			return nil, err
		}
		speed := 0.0
		if ada > 0 && sq > 0 {
			speed = sq / ada
			speedups = append(speedups, speed)
		}
		t.addf("%d|%s|%s|%s|%.2fx", c.clusterN, c.modelN, tps(ada), tps(sq), speed)
		metrics[fmt.Sprintf("c%d/%s/speedup", c.clusterN, c.modelN)] = speed
	}
	metrics["mean_speedup"] = stats.Mean(speedups)
	return &Result{ID: "fig12",
		Title:   "Joint optimization vs pure adaptive quantization (Fig. 12)",
		Text:    t.String() + fmt.Sprintf("\nmean speedup over adabits: %.2fx\n", metrics["mean_speedup"]),
		Metrics: metrics}, nil
}

// Ablations covers the DESIGN.md ablation hooks not tied to a paper
// artifact: phase-aware vs prefill-only partitioning (D1) and
// co-optimized vs fixed micro-batching (D5).
func Ablations(ctx context.Context) (*Result, error) {
	spec := model.OPT30B
	clu := cluster.MustPreset(6)
	batch, err := synthBatch("fixed", 32, 2048)
	if err != nil {
		return nil, err
	}
	ind := core.ProfileIndicator(spec, core.CandidateBits, quant.Deterministic)

	// D1: plan with the decode terms removed from the objective (the
	// phase-blind view of encoder-oriented partitioners), execute the
	// real two-phase workload.
	preOpts := fastOpts(core.MethodHeuristic, 1)
	preOpts.PrefillOnlyObjective = true
	aPre, err := core.New(spec, clu, ind, preOpts)
	if err != nil {
		return nil, err
	}
	pPre, _, err := aPre.Plan(ctx, batch)
	if err != nil {
		return nil, err
	}
	resPre, err := pipeline.Simulate(pPre, spec, clu, batch)
	if err != nil {
		return nil, err
	}
	aFull, err := core.New(spec, clu, ind, fastOpts(core.MethodHeuristic, 1))
	if err != nil {
		return nil, err
	}
	pFull, _, err := aFull.Plan(ctx, batch)
	if err != nil {
		return nil, err
	}
	resFull, err := pipeline.Simulate(pFull, spec, clu, batch)
	if err != nil {
		return nil, err
	}

	// D5: fixed micro-batch (η = ξ = B) vs co-optimized sizes.
	fixedOpts := fastOpts(core.MethodHeuristic, 1)
	fixedOpts.MicroBatches = []int{batch.Size}
	aFixed, err := core.New(spec, clu, ind, fixedOpts)
	if err != nil {
		return nil, err
	}
	pFixed, _, err := aFixed.Plan(ctx, batch)
	if err != nil {
		return nil, err
	}
	resFixed, err := pipeline.Simulate(pFixed, spec, clu, batch)
	if err != nil {
		return nil, err
	}

	t := newTable("ablation", "variant", "tkn/s")
	t.addf("phase-aware (D1)|prefill-only planning|%.1f", resPre.Throughput)
	t.addf("phase-aware (D1)|two-phase planning|%.1f", resFull.Throughput)
	t.addf("micro-batch (D5)|fixed eta=xi=B|%.1f", resFixed.Throughput)
	t.addf("micro-batch (D5)|co-optimized|%.1f", resFull.Throughput)
	return &Result{ID: "ablation",
		Title: "Design ablations: phase-aware planning (D1) and micro-batch co-optimization (D5)",
		Text:  t.String(),
		Metrics: map[string]float64{
			"prefill_only_tps": resPre.Throughput,
			"two_phase_tps":    resFull.Throughput,
			"fixed_mb_tps":     resFixed.Throughput,
			"cooptimized_tps":  resFull.Throughput,
		}}, nil
}
