package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/workload"
)

// BenchmarkBestStart times the multi-start bitwidth-transfer search for
// one configuration: the one a cold heuristic plan picks on preset 2
// (θ = 1, bits {3, 4, 8, 16}, 16-bit KV) for two of the offline shapes
// perfbench's offline-cold workload submits.
func BenchmarkBestStart(b *testing.B) {
	shapes := []struct {
		name  string
		model string
		batch func(*model.Spec) (workload.Batch, error)
	}{
		{"opt-13b-b32", "opt-13b", func(*model.Spec) (workload.Batch, error) {
			return workload.Batch{Size: 32, ChunkLen: 512, Chunks: 1, GenTokens: 32}, nil
		}},
		{"qwen2.5-14b-summarization-b16", "qwen2.5-14b", func(spec *model.Spec) (workload.Batch, error) {
			return workload.Synthesize(workload.CNNDailyMail(stats.NewRNG(1), 2000), 16, 2048, spec.MaxPos)
		}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			spec, err := model.Lookup(sh.model)
			if err != nil {
				b.Fatal(err)
			}
			batch, err := sh.batch(spec)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Method: MethodHeuristic, Theta: 1, Bits: []int{3, 4, 8, 16}, BitKV: 16}
			a, err := New(spec, cluster.MustPreset(2), ProfileIndicator(spec, opts.Bits, quant.Deterministic), opts)
			if err != nil {
				b.Fatal(err)
			}
			_, rep, err := a.Plan(context.Background(), batch)
			if err != nil {
				b.Fatal(err)
			}
			key, bestObj := "", math.Inf(1)
			for _, st := range rep.ConfigStats {
				if st.Feasible && st.Objective < bestObj {
					key, bestObj = st.Key, st.Objective
				}
			}
			var oc *orderingCosts
			for _, cfg := range a.searchConfigs(batch.Size) {
				if cfg.key() == key {
					oc = a.buildConfigCosts(cfg, batch)
				}
			}
			if oc == nil {
				b.Fatalf("planned configuration %q not enumerated", key)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.bestStart(oc, 1)
			}
		})
	}
}
