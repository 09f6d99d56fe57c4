package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/workload"
)

// planGoldenSHA256 is the hash TestPlanGolden takes over its grid of
// plans. A change to it is a change to some plan or configuration
// objective, and must be announced with the plans it moves.
const planGoldenSHA256 = "c2eb533755d23a07e6ffaea80e47306354f21ba28a9ff275348d03a715144371"

// TestPlanGolden plans a fixed grid and hashes every plan's JSON
// (solve_seconds zeroed) and every ConfigStat's key, feasibility,
// objective bits and pruned flag, so a search optimisation that changes
// any plan or any configuration's objective by one bit fails here. The
// grid is presets 2, 3 and 5–9, three models, B ∈ {8, 32} and
// θ ∈ {0.1, 1, 10} under the heuristic and adabits methods, plus the
// ILP at θ = 1 on presets 2 and 3. It runs on amd64 only: arm64 may
// fuse the planner's sums into FMAs and round differently.
func TestPlanGolden(t *testing.T) {
	h := sha256.New()
	plans := 0
	plan := func(spec *model.Spec, preset, B int, theta float64, method Method) {
		clu := cluster.MustPreset(preset)
		opts := Options{Method: method, Theta: theta}
		a := mustAssigner(t, spec, clu, opts)
		batch := workload.Batch{Size: B, ChunkLen: 512, Chunks: 1, GenTokens: 32}
		p, rep, err := a.Plan(context.Background(), batch)
		fmt.Fprintf(h, "%s/%d/B%d/θ%v/%s\n", spec.Name, preset, B, theta, method)
		if err != nil {
			fmt.Fprintf(h, "error %v\n", err)
		} else {
			p.SolveSeconds = 0
			raw, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(raw)
			h.Write([]byte{'\n'})
		}
		if rep != nil {
			for _, st := range rep.ConfigStats {
				fmt.Fprintf(h, "%s %t %x %t\n", st.Key, st.Feasible, math.Float64bits(st.Objective), st.Pruned)
			}
		}
		plans++
	}
	specs := []*model.Spec{model.OPT13B, model.OPT30B, model.Qwen14B}
	for _, preset := range []int{2, 3, 5, 6, 7, 8, 9} {
		for _, spec := range specs {
			for _, B := range []int{8, 32} {
				for _, theta := range []float64{0.1, 1, 10} {
					plan(spec, preset, B, theta, MethodHeuristic)
					plan(spec, preset, B, theta, MethodAdabits)
				}
				if preset == 2 || preset == 3 {
					plan(spec, preset, B, 1, MethodILP)
				}
			}
		}
	}
	if plans != 264 {
		t.Fatalf("planned %d jobs, want 264", plans)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != planGoldenSHA256 {
		t.Fatalf("plan grid hash %s, want %s", got, planGoldenSHA256)
	}
}
