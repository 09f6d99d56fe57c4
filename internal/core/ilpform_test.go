package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestPolishCutoffMatchesUncut solves every configuration an ILP plan
// polishes twice, cut off at the heuristic's best objective as the
// polish solves it and with the cutoff at +Inf, on TestPlanGolden's ILP
// cases and the four offline-cold shapes. Whenever the uncut solve
// returns an assignment the polish accepts (an Eq. 4 objective below
// the incumbent less 1e-12), the cut solve must return it bit for bit,
// and any assignment the cut solve returns must be the uncut one. The
// cut solve may also return a plan the polish rejects, but only within
// cutoffMargin of the incumbent: the ILP re-finding the heuristic's own
// plan, a tie no safe cutoff can tell from a plan 1e-12 better. The
// cutoff changes how much of the tree is searched, never the plan the
// polish accepts.
func TestPolishCutoffMatchesUncut(t *testing.T) {
	type job struct {
		name  string
		a     *Assigner
		batch workload.Batch
	}
	var jobs []job
	for _, preset := range []int{2, 3} {
		for _, spec := range []*model.Spec{model.OPT13B, model.OPT30B, model.Qwen14B} {
			for _, B := range []int{8, 32} {
				a := mustAssigner(t, spec, cluster.MustPreset(preset), Options{Method: MethodILP, Theta: 1})
				batch := workload.Batch{Size: B, ChunkLen: 512, Chunks: 1, GenTokens: 32}
				jobs = append(jobs, job{fmt.Sprintf("%s/%d/B%d", spec.Name, preset, B), a, batch})
			}
		}
	}
	for _, sh := range []benchShape{shapeOPT13B, shapeSummarize, shapeLongCtx, shapeChat} {
		a, batch := benchAssigner(t, sh, MethodILP, 0, nil)
		jobs = append(jobs, job{sh.name, a, batch})
	}
	ctx := context.Background()
	solves, accepted, ties := 0, 0, 0
	for _, j := range jobs {
		_, rep, err := j.a.Plan(ctx, j.batch)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		incumbent := math.Inf(1)
		polished := map[string]bool{}
		for _, st := range rep.ConfigStats {
			if st.ILPSolves == 0 && st.Feasible {
				incumbent = min(incumbent, st.Objective)
			}
			if st.ILPSolves > 0 {
				polished[st.Key] = true
			}
		}
		theta := j.a.opts.Theta
		for _, cfg := range j.a.searchConfigs(j.batch.Size) {
			if !polished[cfg.key()] {
				continue
			}
			oc := j.a.buildConfigCosts(cfg, j.batch)
			ic := ilpConfig{GroupSize: j.a.groupSizeFor(), TimeLimit: j.a.opts.TimeLimit,
				MaxNodes: j.a.opts.MaxNodes, QualityCap: j.a.opts.QualityCap, Incumbent: incumbent}
			cut, _, err := solveILP(ctx, oc, j.a.ind, theta, ic)
			if err != nil {
				t.Fatal(err)
			}
			ic.Incumbent = math.Inf(1)
			uncut, _, err := solveILP(ctx, oc, j.a.ind, theta, ic)
			if err != nil {
				t.Fatal(err)
			}
			solves++
			same := cut != nil && uncut != nil && slices.Equal(cut.stageOf, uncut.stageOf) && slices.Equal(cut.bitIdx, uncut.bitIdx)
			if cut != nil && !same {
				t.Fatalf("%s %s: cut solve returned %+v, uncut %+v", j.name, cfg.key(), cut, uncut)
			}
			if uncut == nil {
				continue
			}
			ev := evaluate(uncut, oc, j.a.ind, theta)
			switch accepts := ev.Feasible && ev.Objective < incumbent-1e-12; {
			case accepts && !same:
				t.Fatalf("%s %s: uncut solve returned %+v, which the polish accepts; cut solve returned nothing",
					j.name, cfg.key(), uncut)
			case accepts:
				accepted++
			case same && ev.Objective > incumbent+cutoffMargin*(incumbent+math.Abs(oc.masterConst)):
				t.Fatalf("%s %s: cut solve returned objective %v above its cutoff, incumbent %v",
					j.name, cfg.key(), ev.Objective, incumbent)
			case same:
				ties++
			}
		}
	}
	if solves == 0 || accepted == 0 {
		t.Fatalf("%d polished configurations, %d accepted: the comparison proves nothing", solves, accepted)
	}
	t.Logf("%d polished configurations: %d accepted plans, %d within the margin but not accepted", solves, accepted, ties)
}
