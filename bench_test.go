package splitquant_test

// One benchmark per table and figure of the paper's evaluation. Each
// bench executes the corresponding experiment from internal/experiments
// and reports its headline metric(s) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation and records the reproduced numbers.
// Additional micro-benchmarks cover the performance-critical primitives
// (quantization, matmul, simplex/ILP solves, end-to-end planning).

import (
	"context"
	"runtime"
	"testing"

	splitquant "repro"
	"repro/internal/experiments"
	"repro/internal/lp"
	"repro/internal/perf"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// runExperiment executes one experiment per iteration and reports its
// metrics once.
func runExperiment(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	var last map[string]float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ByID(context.Background(), id)
		if err != nil {
			b.Fatal(err)
		}
		last = r.Metrics
	}
	for _, k := range metricKeys {
		if v, ok := last[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

func BenchmarkFig1FleetTrace(b *testing.B) {
	runExperiment(b, "fig1", "idle_fraction", "a100_util")
}

func BenchmarkFig3PhaseDecomposition(b *testing.B) {
	runExperiment(b, "fig3", "p100_v100_prefill_ratio", "p100_v100_decode_ratio")
}

func BenchmarkFig4QuantQuality(b *testing.B) {
	runExperiment(b, "fig4", "opt-1.3b-proxy/fp/int3/ppl", "opt-1.3b-proxy/fp/int16/ppl")
}

func BenchmarkFig5PrecisionLatency(b *testing.B) {
	runExperiment(b, "fig5", "T4-16G_decode_int4_speedup", "V100-32G_prefill_int3_slowdown")
}

func BenchmarkTable1LayerSensitivity(b *testing.B) {
	runExperiment(b, "table1", "opt-1.3b-proxy/range0/ppl", "opt-1.3b-proxy/range2/ppl")
}

func BenchmarkFig7WorkloadDistributions(b *testing.B) {
	runExperiment(b, "fig7", "cnn_avg_out", "loogle_avg_out")
}

func BenchmarkFig8CostModelFidelity(b *testing.B) {
	runExperiment(b, "fig8", "memory_mape", "worst_latency_mape")
}

func BenchmarkFig9HeterogeneousVLLM(b *testing.B) {
	runExperiment(b, "fig9", "mean_speedup")
}

func BenchmarkFig10CustomBackend(b *testing.B) {
	runExperiment(b, "fig10", "mean_vs_het", "uniform_ooms")
}

func BenchmarkTable4Homogeneous(b *testing.B) {
	runExperiment(b, "table4", "c9/splitquant/optimal", "c10/splitquant/optimal")
}

func BenchmarkTable5Indicator(b *testing.B) {
	runExperiment(b, "table5",
		"opt-30b-proxy/splitquant/ppl", "opt-30b-proxy/hessian/overhead", "opt-30b-proxy/splitquant/overhead")
}

func BenchmarkTable6SolverScaling(b *testing.B) {
	runExperiment(b, "table6", "c6/heuristic/overhead", "c6/group=4/overhead")
}

func BenchmarkFig11ThetaSensitivity(b *testing.B) {
	runExperiment(b, "fig11", "c8/theta1.0/tps", "c8/theta100.0/tps")
}

func BenchmarkFig12AdabitsAblation(b *testing.B) {
	runExperiment(b, "fig12", "mean_speedup")
}

func BenchmarkAblationPrefillOnly(b *testing.B) {
	runExperiment(b, "ablation", "prefill_only_tps", "two_phase_tps")
}

func BenchmarkAblationFixedMicrobatch(b *testing.B) {
	runExperiment(b, "ablation", "fixed_mb_tps", "cooptimized_tps")
}

// ---- Primitive micro-benchmarks. ----

func BenchmarkQuantDequantInt4(b *testing.B) {
	rng := stats.NewRNG(1)
	w := tensor.NewMatrix(512, 512)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormMS(0, 0.05))
	}
	b.SetBytes(int64(len(w.Data)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quant.QuantDequant(w, quant.Scheme{Bits: 4}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := stats.NewRNG(3)
	m := tensor.NewMatrix(256, 256)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormMS(0, 1))
	}
	b.SetBytes(2 * 256 * 256 * 256) // MACs as a proxy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(m, m)
	}
}

func BenchmarkSimplexSolve(b *testing.B) {
	// A representative planner-scale LP: 120 vars, 80 rows.
	rng := stats.NewRNG(4)
	n, m := 120, 80
	p := &lp.Problem{C: make([]float64, n)}
	for j := range p.C {
		p.C[j] = rng.Float64()
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64()
		}
		p.A = append(p.A, row)
		p.Senses = append(p.Senses, lp.LE)
		p.B = append(p.B, 10+rng.Float64()*10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanHeuristicCluster5 times a cold plan: each iteration
// plans on a new System, whose plan cache is empty.
func BenchmarkPlanHeuristicCluster5(b *testing.B) {
	w := splitquant.FixedWorkload(32, 512, 32)
	for i := 0; i < b.N; i++ {
		sys, err := splitquant.New("opt-30b", splitquant.Preset(5),
			splitquant.WithMethod("heuristic"), splitquant.WithTheta(1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Plan(w, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanParallelSpeedup runs perf.PlanParallelSpeedup: the same
// plan timed sequentially (WithParallelism(1)) and on all CPUs, with the
// wall-clock ratio reported as the "speedup" metric.
func BenchmarkPlanParallelSpeedup(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs >1 CPU")
	}
	var seq, par float64
	for i := 0; i < b.N; i++ {
		res, err := perf.PlanParallelSpeedup(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		seq += res.SeqSeconds
		par += res.ParSeconds
	}
	if par > 0 {
		b.ReportMetric(seq/par, "speedup")
	}
}

// BenchmarkServeThroughput runs perf.ServeThroughput: end-to-end jobs/sec
// through the serve control plane (submit → plan → simulate → complete)
// with a cold plan cache (every job plans fresh) and a warm one (every
// job must hit). cmd/benchjson snapshots the same measurement into
// BENCH_replan.json.
func BenchmarkServeThroughput(b *testing.B) {
	var last *perf.ServeResult
	for i := 0; i < b.N; i++ {
		res, err := perf.ServeThroughput(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ColdJobsPerSec, "cold_jobs/s")
	b.ReportMetric(last.WarmJobsPerSec, "warm_jobs/s")
}

// BenchmarkReplanLatency runs the tracked seeded-churn scenario from
// internal/perf: a fixed sequence of degraded preset-5 topologies, each
// solved cold (fresh System) and warm (PlanContext on a Fork of the
// previous round's System, sharing its plan cache and cost cache). The
// scenario itself asserts bit-identical plans and exact pruning
// accounting; the benchmark additionally enforces the tracked floor of
// a 5× warm speedup. cmd/benchjson snapshots the same measurement into
// BENCH_replan.json (regenerate with make bench-json-out).
func BenchmarkReplanLatency(b *testing.B) {
	var last *perf.ReplanResult
	for i := 0; i < b.N; i++ {
		res, err := perf.ReplanLatency(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Speedup < 5 {
			b.Fatalf("warm replan speedup %.2f× below the tracked 5× floor (cold %.3fs, warm %.3fs)",
				res.Speedup, res.ColdSeconds, res.WarmSeconds)
		}
		last = res
	}
	b.ReportMetric(last.ColdSeconds*1e3/float64(last.Rounds), "cold_ms/replan")
	b.ReportMetric(last.WarmSeconds*1e3/float64(last.Rounds), "warm_ms/replan")
	b.ReportMetric(last.Speedup, "speedup")
}

// BenchmarkOnlineServing runs the tracked online-serving scenario from
// internal/perf: seeded Poisson arrivals against disaggregated
// prefill/decode pools on preset 2, continuous batching to completion
// on the virtual clock. The reported metrics are simulation results,
// not wall-clock timings; cmd/benchjson snapshots the same measurement
// into BENCH_online.json (regenerate with make bench-json-out).
func BenchmarkOnlineServing(b *testing.B) {
	var last *perf.OnlineResult
	for i := 0; i < b.N; i++ {
		res, err := perf.OnlineServing(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.GoodputTPS, "goodput_tok/s")
	b.ReportMetric(last.TTFTP50*1e3, "ttft_p50_ms")
	b.ReportMetric(last.DeadlineHitRate*100, "slo_%")
}

// BenchmarkObsOverhead runs the tracked telemetry-overhead scenario
// from internal/perf: the warm-cache serve throughput with and without
// an active span tracer, alternated per round. The benchmark enforces
// the tracked absolute ceiling — full tracing may cost the warm serve
// path at most 5%. cmd/benchjson snapshots the same measurement into
// BENCH_obs.json (regenerate with make bench-json-out).
func BenchmarkObsOverhead(b *testing.B) {
	var last *perf.ObsResult
	for i := 0; i < b.N; i++ {
		res, err := perf.ObsOverhead(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Overhead > perf.ObsOverheadCeiling {
			b.Fatalf("telemetry overhead %.1f%% above the tracked %.0f%% ceiling (base %.1f, traced %.1f jobs/sec)",
				res.Overhead*100, perf.ObsOverheadCeiling*100, res.BaseJobsPerSec, res.TracedJobsPerSec)
		}
		last = res
	}
	b.ReportMetric(last.Overhead*100, "overhead_%")
	b.ReportMetric(last.TracedJobsPerSec, "traced_jobs/s")
	b.ReportMetric(float64(last.Spans), "spans")
}

func BenchmarkSimulatePipeline(b *testing.B) {
	sys, err := splitquant.New("opt-30b", splitquant.Preset(5),
		splitquant.WithMethod("heuristic"), splitquant.WithTheta(1))
	if err != nil {
		b.Fatal(err)
	}
	dep, err := sys.Plan(splitquant.FixedWorkload(32, 512, 32), 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Measure(); err != nil {
			b.Fatal(err)
		}
	}
}
