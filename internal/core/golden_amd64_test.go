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

// planGoldenSHA256 is the hash TestPlanGolden takes over its grid's
// plans. A change to it is a change to some plan, and must be announced
// with the plans it moves.
const planGoldenSHA256 = "b4165f4573a5b0276ee8423f7138a1b67c3d0410c8a684eb5af1554282b26c90"

// configGoldenSHA256 is the hash TestPlanGolden takes over its grid's
// ConfigStats. It moves with any change to a configuration's objective
// and with any change to which configurations the search prunes.
const configGoldenSHA256 = "888e514648bdc59e2a10504852cc5c9493b672190ffbffb5bd4e2db912906461"

// TestPlanGolden plans a fixed grid and takes two hashes: one over every
// plan's JSON (solve_seconds zeroed), and one over every ConfigStat's
// key, feasibility, objective bits and pruned flag. A search optimisation
// that changes any plan by one bit fails the first; one that changes any
// configuration's objective, or which configurations are pruned, fails
// the second. Every plan's objective must be at least its report's
// LowerBound. The grid is presets 2, 3 and 5–9, three models,
// B ∈ {8, 32} and θ ∈ {0.1, 1, 10} under the heuristic and adabits
// methods, plus the ILP at θ = 1 on presets 2 and 3. It runs on amd64
// only: arm64 may fuse the planner's sums into FMAs and round
// differently.
func TestPlanGolden(t *testing.T) {
	plans, configs := sha256.New(), sha256.New()
	n := 0
	plan := func(spec *model.Spec, preset, B int, theta float64, method Method) {
		clu := cluster.MustPreset(preset)
		opts := Options{Method: method, Theta: theta}
		a := mustAssigner(t, spec, clu, opts)
		batch := workload.Batch{Size: B, ChunkLen: 512, Chunks: 1, GenTokens: 32}
		p, rep, err := a.Plan(context.Background(), batch)
		job := fmt.Sprintf("%s/%d/B%d/θ%v/%s", spec.Name, preset, B, theta, method)
		fmt.Fprintln(plans, job)
		fmt.Fprintln(configs, job)
		if err != nil {
			fmt.Fprintf(plans, "error %v\n", err)
		} else {
			if rep.LowerBound > p.Objective {
				t.Errorf("%s: lower bound %v exceeds the plan's objective %v", job, rep.LowerBound, p.Objective)
			}
			p.SolveSeconds = 0
			raw, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			plans.Write(raw)
			plans.Write([]byte{'\n'})
		}
		if rep != nil {
			for _, st := range rep.ConfigStats {
				fmt.Fprintf(configs, "%s %t %x %t\n", st.Key, st.Feasible, math.Float64bits(st.Objective), st.Pruned)
			}
		}
		n++
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
	if n != 264 {
		t.Fatalf("planned %d jobs, want 264", n)
	}
	if got := hex.EncodeToString(plans.Sum(nil)); got != planGoldenSHA256 {
		t.Errorf("plan grid hash %s, want %s", got, planGoldenSHA256)
	}
	if got := hex.EncodeToString(configs.Sum(nil)); got != configGoldenSHA256 {
		t.Errorf("ConfigStats grid hash %s, want %s", got, configGoldenSHA256)
	}
}
