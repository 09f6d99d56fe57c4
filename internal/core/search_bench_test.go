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

// benchConfig plans sh with method at θ = 1 and returns the assigner and
// the cost tables of the configuration pick names from the plan's
// report.
func benchConfig(b *testing.B, sh benchShape, method Method, pick func(*Report) string) (*Assigner, *orderingCosts) {
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
	opts := Options{Method: method, Theta: 1, Bits: []int{3, 4, 8, 16}, BitKV: 16}
	a, err := New(spec, cluster.MustPreset(2), ProfileIndicator(spec, opts.Bits, quant.Deterministic), opts)
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkPolish times one ILP polish (solveILP, warm-started from the
// heuristic's assignment) of the first configuration an ILP plan of the
// offline-cold chat shape shortlists.
func BenchmarkPolish(b *testing.B) {
	firstPolished := func(rep *Report) string {
		for _, st := range rep.ConfigStats {
			if st.ILPSolves > 0 {
				return st.Key
			}
		}
		return ""
	}
	a, oc := benchConfig(b, shapeChat, MethodILP, firstPolished)
	warm, _ := a.bestStart(oc, 1)
	cfg := ilpConfig{GroupSize: a.groupSizeFor(), TimeLimit: a.opts.TimeLimit, MaxNodes: a.opts.MaxNodes, WarmStart: warm}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solveILP(context.Background(), oc, a.ind, 1, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
