package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/workload"
)

// methodRun plans with one method and simulates the result, returning
// throughput (0 on OOM/infeasibility).
func methodRun(ctx context.Context, spec *model.Spec, clu *cluster.Cluster, batch workload.Batch,
	opts core.Options) (float64, *plan.Plan, error) {

	tp, p, _, err := methodRunReport(ctx, spec, clu, batch, opts)
	return tp, p, err
}

// methodRunReport is methodRun that also returns the planner's report
// (nil when planning failed).
func methodRunReport(ctx context.Context, spec *model.Spec, clu *cluster.Cluster, batch workload.Batch,
	opts core.Options) (float64, *plan.Plan, *core.Report, error) {

	ind := core.ProfileIndicator(spec, core.CandidateBits, quant.Deterministic)
	a, err := core.New(spec, clu, ind, opts)
	if err != nil {
		return 0, nil, nil, err
	}
	p, rep, err := a.Plan(ctx, batch)
	if err != nil {
		return 0, nil, nil, nil // infeasible: OOM-style zero bar
	}
	res, err := pipeline.Simulate(p, spec, clu, batch)
	if err != nil {
		if errors.Is(err, pipeline.ErrOOM) {
			return 0, p, rep, nil
		}
		return 0, p, rep, err
	}
	return res.Throughput, p, rep, nil
}

// uniformQuality returns the Σω of the Uniform plan (the §VI-C quality
// floor), or -1 when Uniform is infeasible.
func uniformQuality(ctx context.Context, spec *model.Spec, clu *cluster.Cluster, batch workload.Batch, opts core.Options) float64 {
	opts.Method = core.MethodUniform
	ind := core.ProfileIndicator(spec, core.CandidateBits, quant.Deterministic)
	a, err := core.New(spec, clu, ind, opts)
	if err != nil {
		return -1
	}
	p, _, err := a.Plan(ctx, batch)
	if err != nil {
		return -1
	}
	return ind.Total(p.Bits())
}

// e2eCase is one cluster/model/workload pairing of Fig. 9/10.
type e2eCase struct {
	clusterN int
	modelN   string
	workload string // "cnn" or "loogle" or "fixed"
	batch    workload.Batch
}

// synthBatch builds a batch for a named workload capped to maxPos.
func synthBatch(kind string, B, maxPos int) (workload.Batch, error) {
	switch kind {
	case "cnn":
		p := workload.CNNDailyMail(stats.NewRNG(41), 2000)
		return workload.Synthesize(p, B, 2048, maxPos)
	case "loogle":
		p := workload.LooGLE(stats.NewRNG(42), 2000)
		return workload.Synthesize(p, B, 2048, maxPos)
	case "fixed":
		// DeepSpeed-style custom-backend workload: prompt 512, 32 tokens.
		return workload.Batch{Size: B, ChunkLen: 512, Chunks: 1, GenTokens: 32}, nil
	default:
		return workload.Batch{}, fmt.Errorf("experiments: unknown workload %q", kind)
	}
}

// fastOpts returns heuristic planner options sized for experiment runs.
func fastOpts(method core.Method, theta float64) core.Options {
	return core.Options{
		Method:        method,
		Theta:         theta,
		OrderingLimit: 6,
		TimeLimit:     10 * time.Second,
		MaxNodes:      40,
		ILPCandidates: 1,
	}
}

// Fig9 regenerates the vLLM-backend end-to-end comparison on the
// moderately heterogeneous clusters 2-7: CNN-DailyMail summarization and
// LooGLE long-context understanding, Uniform vs Het vs SplitQuant.
// Concurrency is sized so the full-batch KV reservation fits the
// simulated clusters (vLLM pages KV dynamically; our runtime reserves it
// up front).
func Fig9(ctx context.Context) (*Result, error) {
	cases := []struct {
		clusterN int
		modelN   string
		wk       string
		B        int
		maxPos   int
	}{
		{2, "qwen2.5-14b", "cnn", 16, 4096},
		{3, "qwen2.5-7b", "cnn", 16, 4096},
		{4, "qwen2.5-32b", "cnn", 16, 4096},
		{5, "opt-30b", "cnn", 4, 2048},
		{6, "opt-13b", "cnn", 8, 2048},
		{7, "opt-66b", "cnn", 4, 2048},
		{2, "qwen2.5-14b", "loogle", 4, 8192},
		{3, "qwen2.5-7b", "loogle", 8, 8192},
		{4, "qwen2.5-32b", "loogle", 4, 8192},
		{5, "opt-30b", "loogle", 4, 2048},
		{6, "opt-13b", "loogle", 8, 2048},
		{7, "opt-66b", "loogle", 4, 2048},
	}
	t := newTable("cluster", "model", "workload", "uniform", "het", "splitquant", "speedup")
	metrics := map[string]float64{}
	var speedups []float64
	for _, c := range cases {
		spec, err := model.Lookup(c.modelN)
		if err != nil {
			return nil, err
		}
		clu := cluster.MustPreset(c.clusterN)
		batch, err := synthBatch(c.wk, c.B, minInt(c.maxPos, spec.MaxPos))
		if err != nil {
			return nil, err
		}
		uni, _, err := methodRun(ctx, spec, clu, batch, fastOpts(core.MethodUniform, 0))
		if err != nil {
			return nil, err
		}
		hetTp, _, err := methodRun(ctx, spec, clu, batch, fastOpts(core.MethodHet, 0))
		if err != nil {
			return nil, err
		}
		// §VI-C: constrain SplitQuant to at least Uniform's quality.
		sqOpts := fastOpts(core.MethodHeuristic, 1)
		if q := uniformQuality(ctx, spec, clu, batch, sqOpts); q >= 0 {
			cap := q
			if cap == 0 {
				cap = 1e-9 // "at least FP16 quality" → effectively FP16 only
			}
			sqOpts.QualityCap = cap
		}
		sq, _, err := methodRun(ctx, spec, clu, batch, sqOpts)
		if err != nil {
			return nil, err
		}
		speed := 0.0
		if uni > 0 && sq > 0 {
			speed = sq / uni
			speedups = append(speedups, speed)
		}
		t.addf("%d|%s|%s|%s|%s|%s|%.2fx", c.clusterN, c.modelN, c.wk,
			tps(uni), tps(hetTp), tps(sq), speed)
		metrics[fmt.Sprintf("c%d/%s/%s/speedup", c.clusterN, c.modelN, c.wk)] = speed
	}
	metrics["mean_speedup"] = stats.Mean(speedups)
	text := t.String() + fmt.Sprintf("\nmean SplitQuant speedup over Uniform: %.2fx (paper: ~1.37x on vLLM backend)\n",
		metrics["mean_speedup"])
	return &Result{ID: "fig9", Title: "End-to-end throughput, heterogeneous clusters (vLLM-class backend)",
		Text: text, Metrics: metrics}, nil
}

// Fig10 regenerates the custom-backend comparison on the severely
// heterogeneous clusters: the DeepSpeed-style fixed workload (B=32,
// s=512), where Uniform frequently cannot fit at all and speedups are
// reported against Het.
func Fig10(ctx context.Context) (*Result, error) {
	var cases []e2eCase
	for _, cn := range []int{5, 6, 8} {
		b, _ := synthBatch("fixed", 32, 2048)
		cases = append(cases, e2eCase{clusterN: cn, modelN: "opt-30b", workload: "fixed", batch: b})
	}
	for _, cn := range []int{5, 7} {
		b, _ := synthBatch("fixed", 32, 2048)
		cases = append(cases, e2eCase{clusterN: cn, modelN: "opt-66b", workload: "fixed", batch: b})
	}

	t := newTable("cluster", "model", "uniform", "het", "splitquant", "vs het")
	metrics := map[string]float64{}
	var speedups []float64
	oomCount := 0
	for _, c := range cases {
		spec, err := model.Lookup(c.modelN)
		if err != nil {
			return nil, err
		}
		clu := cluster.MustPreset(c.clusterN)
		uni, _, err := methodRun(ctx, spec, clu, c.batch, fastOpts(core.MethodUniform, 0))
		if err != nil {
			return nil, err
		}
		if uni == 0 {
			oomCount++
		}
		hetTp, _, err := methodRun(ctx, spec, clu, c.batch, fastOpts(core.MethodHet, 0))
		if err != nil {
			return nil, err
		}
		sq, _, err := methodRun(ctx, spec, clu, c.batch, fastOpts(core.MethodHeuristic, 1))
		if err != nil {
			return nil, err
		}
		speed := 0.0
		if hetTp > 0 && sq > 0 {
			speed = sq / hetTp
			speedups = append(speedups, speed)
		}
		t.addf("%d|%s|%s|%s|%s|%.2fx", c.clusterN, c.modelN, tps(uni), tps(hetTp), tps(sq), speed)
		metrics[fmt.Sprintf("c%d/%s/vs_het", c.clusterN, c.modelN)] = speed
	}
	metrics["mean_vs_het"] = stats.Mean(speedups)
	metrics["uniform_ooms"] = float64(oomCount)
	text := t.String() + fmt.Sprintf(
		"\n0 tkn/s = OOM. mean SplitQuant speedup over Het: %.2fx (paper: ~2.08x); Uniform OOMs: %d/%d\n",
		metrics["mean_vs_het"], oomCount, len(cases))
	return &Result{ID: "fig10", Title: "End-to-end throughput, severe heterogeneity (custom backend)",
		Text: text, Metrics: metrics}, nil
}

// Table4 regenerates the homogeneous-cluster study: clusters 1, 9 and 10
// with explicit parallelism configurations (PP4, TP2+PP2, TP4) under
// Uniform, plus Het and SplitQuant with free topology choice.
func Table4(ctx context.Context) (*Result, error) {
	t := newTable("cluster", "model", "scheme", "config", "tkn/s", "speedup")
	metrics := map[string]float64{}

	ppFilter := func(mesh []cluster.Device) bool {
		for _, d := range mesh {
			if d.TPDegree != 1 {
				return false
			}
		}
		return len(mesh) == 4
	}
	tp2pp2Filter := func(mesh []cluster.Device) bool {
		return len(mesh) == 2 && mesh[0].TPDegree == 2
	}
	tp4Filter := func(mesh []cluster.Device) bool {
		return len(mesh) == 1 && mesh[0].TPDegree == 4
	}

	type row struct {
		scheme string
		opts   core.Options
		config string
	}
	run := func(clusterN int, modelN string, B int, rows []row) error {
		spec, err := model.Lookup(modelN)
		if err != nil {
			return err
		}
		clu := cluster.MustPreset(clusterN)
		batch, err := synthBatch("cnn", B, minInt(4096, spec.MaxPos))
		if err != nil {
			return err
		}
		// §VI-C/D quality floor for SplitQuant rows.
		var qcap float64
		if q := uniformQuality(ctx, spec, clu, batch, fastOpts(core.MethodUniform, 0)); q >= 0 {
			qcap = q
			if qcap == 0 {
				qcap = 1e-9
			}
		}
		// Run all rows, then report speedups against the best Uniform
		// configuration (the paper's 1.00× anchor).
		tputs := make([]float64, len(rows))
		var base float64
		for i, r := range rows {
			opts := r.opts
			if r.scheme == "splitquant" && qcap > 0 {
				opts.QualityCap = qcap
			}
			tp, _, err := methodRun(ctx, spec, clu, batch, opts)
			if err != nil {
				return err
			}
			tputs[i] = tp
			metrics[fmt.Sprintf("c%d/%s/%s", clusterN, r.scheme, r.config)] = tp
			if r.scheme == "uniform" && tp > base {
				base = tp
			}
		}
		for i, r := range rows {
			speed := 0.0
			if base > 0 && tputs[i] > 0 {
				speed = tputs[i] / base
			}
			t.addf("%d|%s|%s|%s|%s|%.2fx", clusterN, modelN, r.scheme, r.config, tps(tputs[i]), speed)
		}
		return nil
	}

	uniWith := func(f func([]cluster.Device) bool) core.Options {
		o := fastOpts(core.MethodUniform, 0)
		o.MeshFilter = f
		return o
	}
	// Cluster 1: single V100, 7B model.
	if err := run(1, "qwen2.5-7b", 8, []row{
		{"uniform", fastOpts(core.MethodUniform, 0), "-"},
		{"splitquant", fastOpts(core.MethodHeuristic, 1), "optimal"},
	}); err != nil {
		return nil, err
	}
	// Clusters 9 and 10: 70B model, explicit configs.
	for _, cn := range []int{9, 10} {
		if err := run(cn, "llama3.3-70b", 4, []row{
			{"uniform", uniWith(ppFilter), "PP4"},
			{"uniform", uniWith(tp2pp2Filter), "TP2+PP2"},
			{"uniform", uniWith(tp4Filter), "TP4"},
			{"het", fastOpts(core.MethodHet, 0), "free"},
			{"splitquant", fastOpts(core.MethodHeuristic, 1), "optimal"},
		}); err != nil {
			return nil, err
		}
	}
	return &Result{ID: "table4", Title: "Homogeneous clusters with explicit TP/PP configurations (Table IV)",
		Text: t.String() + "\n0 tkn/s = OOM under that configuration.\n", Metrics: metrics}, nil
}

// tps formats throughput, rendering OOM as such.
func tps(v float64) string {
	if v == 0 {
		return "OOM"
	}
	return fmt.Sprintf("%.1f", v)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
