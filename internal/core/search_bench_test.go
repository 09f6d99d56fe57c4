package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/workload"
)

// benchShape is one of the four job shapes perfbench's offline-cold
// workload submits, planned on preset 2 with bits {3, 4, 8, 16} and
// 16-bit KV.
type benchShape struct {
	name, model string
	// workload is a workload.Named profile (seed 1), or "" for the
	// fixed 512/32 profile.
	workload string
	size     int
}

var (
	shapeOPT13B    = benchShape{"opt-13b-b32", "opt-13b", "", 32}
	shapeSummarize = benchShape{"qwen2.5-14b-summarization-b16", "qwen2.5-14b", "summarization", 16}
	shapeLongCtx   = benchShape{"qwen2.5-14b-longcontext-b4", "qwen2.5-14b", "longcontext", 4}
	shapeChat      = benchShape{"opt-13b-chat-b16", "opt-13b", "chat", 16}
)

// benchAssigner returns a new assigner for sh with method at θ = 1
// (Options.Parallelism and a cost cache as given) and sh's batch.
func benchAssigner(b testing.TB, sh benchShape, method Method, parallelism int, costs *CostCache) (*Assigner, workload.Batch) {
	b.Helper()
	spec, err := model.Lookup(sh.model)
	if err != nil {
		b.Fatal(err)
	}
	prof := workload.Fixed(1, 512, 32)
	if sh.workload != "" {
		if prof, err = workload.Named(sh.workload, 1); err != nil {
			b.Fatal(err)
		}
	}
	batch, err := workload.Synthesize(prof, sh.size, 2048, spec.MaxPos)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Method: method, Theta: 1, Bits: []int{3, 4, 8, 16}, BitKV: 16, Parallelism: parallelism, Costs: costs}
	a, err := New(spec, cluster.MustPreset(2), ProfileIndicator(spec, opts.Bits, quant.Deterministic), opts)
	if err != nil {
		b.Fatal(err)
	}
	return a, batch
}

// TestBenchShapesPrune pins the search's pruning on the four
// offline-cold shapes: a heuristic plan of each evaluates at most 16 of
// its configurations, the chat shape's ILP plan (as perfbench submits
// it) explores at most 8 branch-and-bound nodes in its polish, and
// every plan equals exhaustivePlan's.
func TestBenchShapesPrune(t *testing.T) {
	for _, sh := range []benchShape{shapeOPT13B, shapeSummarize, shapeLongCtx, shapeChat} {
		methods := []Method{MethodHeuristic}
		if sh == shapeChat {
			methods = append(methods, MethodILP)
		}
		for _, method := range methods {
			t.Run(sh.name+"/"+string(method), func(t *testing.T) {
				a, batch := benchAssigner(t, sh, method, 0, nil)
				got, rep, err := a.Plan(context.Background(), batch)
				if err != nil {
					t.Fatal(err)
				}
				want, err := exhaustivePlan(a, batch)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := planJSON(t, got), planJSON(t, want); g != w {
					t.Fatalf("plan differs from the exhaustive reference:\ngot  %s\nwant %s", g, w)
				}
				if method == MethodHeuristic && rep.Configs > 16 {
					t.Fatalf("evaluated %d of %d configurations, want at most 16",
						rep.Configs, rep.Configs+rep.PrunedConfigs)
				}
				if method == MethodILP && rep.Nodes > 8 {
					t.Fatalf("polish explored %d nodes in %d solves, want at most 8", rep.Nodes, rep.ILPSolves)
				}
			})
		}
	}
}

// benchConfig plans sh with method at θ = 1 and returns the assigner and
// the cost tables of the configuration pick names from the plan's
// report.
func benchConfig(b *testing.B, sh benchShape, method Method, pick func(*Report) string) (*Assigner, *orderingCosts) {
	b.Helper()
	a, batch := benchAssigner(b, sh, method, 0, nil)
	_, rep, err := a.Plan(context.Background(), batch)
	if err != nil {
		b.Fatal(err)
	}
	key := pick(rep)
	for _, cfg := range a.searchConfigs(batch.Size) {
		if cfg.key() == key {
			return a, a.buildConfigCosts(cfg, batch)
		}
	}
	b.Fatalf("configuration %q not enumerated", key)
	return nil, nil
}

// BenchmarkColdPlan times one whole cold Assigner.Plan, on one worker,
// at each of the four offline-cold shapes with its method (the ILP for
// the chat shape, as perfbench submits it): a new assigner and a new
// cost cache every plan, so every search buffer and device cost is
// built afresh, as on a fresh server. It reports the configurations
// the sweep evaluates (configs/op) and the polish's branch-and-bound
// nodes (nodes/op) per plan.
func BenchmarkColdPlan(b *testing.B) {
	for _, sh := range []benchShape{shapeOPT13B, shapeSummarize, shapeLongCtx, shapeChat} {
		method := MethodHeuristic
		if sh == shapeChat {
			method = MethodILP
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			configs, nodes := 0, 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, batch := benchAssigner(b, sh, method, 1, NewCostCache())
				b.StartTimer()
				_, rep, err := a.Plan(context.Background(), batch)
				if err != nil {
					b.Fatal(err)
				}
				configs += rep.Configs
				nodes += rep.Nodes
			}
			b.ReportMetric(float64(configs)/float64(b.N), "configs/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

// BenchmarkBestStart times the multi-start bitwidth-transfer search for
// one configuration, the one a cold heuristic plan picks, at each of the
// four offline-cold shapes.
func BenchmarkBestStart(b *testing.B) {
	best := func(rep *Report) string {
		key, bestObj := "", math.Inf(1)
		for _, st := range rep.ConfigStats {
			if st.Feasible && st.Objective < bestObj {
				key, bestObj = st.Key, st.Objective
			}
		}
		return key
	}
	for _, sh := range []benchShape{shapeOPT13B, shapeSummarize, shapeLongCtx, shapeChat} {
		b.Run(sh.name, func(b *testing.B) {
			a, oc := benchConfig(b, sh, MethodHeuristic, best)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.bestStart(oc, 1)
			}
		})
	}
}

// BenchmarkConfigBound times the Lagrangian bound of every configuration
// of a cold heuristic plan at each of the four offline-cold shapes,
// refined toward the plan's objective as the search refines it once
// that objective is its threshold, and reports the CPU per
// configuration.
func BenchmarkConfigBound(b *testing.B) {
	for _, sh := range []benchShape{shapeOPT13B, shapeSummarize, shapeLongCtx, shapeChat} {
		b.Run(sh.name, func(b *testing.B) {
			a, batch := benchAssigner(b, sh, MethodHeuristic, 0, nil)
			p, _, err := a.Plan(context.Background(), batch)
			if err != nil {
				b.Fatal(err)
			}
			var ocs []*orderingCosts
			for _, cfg := range a.searchConfigs(batch.Size) {
				ocs = append(ocs, a.buildConfigCosts(cfg, batch))
			}
			tw := thetaOmega(a.ind, len(a.opts.Bits), 1)
			var lg lagrangian
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, oc := range ocs {
					lg.bound(oc, tw, p.Objective+boundEps, lagrangeSteps)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ocs)), "ns/config")
		})
	}
}

// BenchmarkPolish times one ILP polish (solveILP, cut off at the
// heuristic's best objective, as the polish runs it) of the first
// configuration an ILP plan of the offline-cold chat shape shortlists.
func BenchmarkPolish(b *testing.B) {
	incumbent := math.Inf(1)
	firstPolished := func(rep *Report) string {
		key := ""
		for _, st := range rep.ConfigStats {
			if st.ILPSolves == 0 && st.Feasible {
				incumbent = min(incumbent, st.Objective)
			}
			if st.ILPSolves > 0 && key == "" {
				key = st.Key
			}
		}
		return key
	}
	a, oc := benchConfig(b, shapeChat, MethodILP, firstPolished)
	cfg := ilpConfig{GroupSize: a.groupSizeFor(), TimeLimit: a.opts.TimeLimit, MaxNodes: a.opts.MaxNodes, Incumbent: incumbent}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solveILP(context.Background(), oc, a.ind, 1, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
