package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/plan"
)

// clonePlanWithRenamedDevices copies a plan onto device IDs no cluster
// enumerates.
func clonePlanWithRenamedDevices(t *testing.T, p *plan.Plan) *plan.Plan {
	t.Helper()
	p2 := *p
	p2.Stages = append([]plan.Stage(nil), p.Stages...)
	for i := range p2.Stages {
		p2.Stages[i].Device.ID = fmt.Sprintf("ghost/tp1-%d", i)
		p2.Stages[i].Device.Node = "ghost"
	}
	return &p2
}

// planJSON renders a plan to its deterministic wire form for
// bit-identity comparison.
func planJSON(t *testing.T, p *plan.Plan) string {
	t.Helper()
	p2 := *p
	p2.SolveSeconds = 0 // wall-clock, legitimately differs between runs
	raw, err := json.Marshal(&p2)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestReplanBitIdenticalToColdSameCluster(t *testing.T) {
	for _, method := range []Method{MethodHeuristic, MethodILP} {
		t.Run(string(method), func(t *testing.T) {
			spec := model.BLOOM560M
			clu := cluster.MustPreset(5)
			opts := Options{Method: method, OrderingLimit: 4}
			a := mustAssigner(t, spec, clu, opts)
			cold, coldRep, err := a.Plan(context.Background(), smallBatch)
			if err != nil {
				t.Fatal(err)
			}
			warm, warmRep, err := a.Replan(context.Background(), smallBatch, cold)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := planJSON(t, warm), planJSON(t, cold); got != want {
				t.Fatalf("warm plan differs from cold:\nwarm %s\ncold %s", got, want)
			}
			if !warmRep.WarmStarted {
				t.Fatal("Replan did not report WarmStarted")
			}
			n := len(a.searchConfigs(smallBatch.Size))
			for _, rep := range []*Report{coldRep, warmRep} {
				if rep.Configs+rep.PrunedConfigs != n {
					t.Fatalf("evaluated %d + pruned %d != %d enumerated configs",
						rep.Configs, rep.PrunedConfigs, n)
				}
			}
			if warmRep.PrunedConfigs == 0 {
				t.Logf("note: no configurations pruned for %s (bound too loose on this instance)", method)
			}
		})
	}
}

func TestReplanBitIdenticalToColdAfterShrink(t *testing.T) {
	spec := model.BLOOM560M
	full := cluster.MustPreset(5) // 3×T4 + 1×V100
	a := mustAssigner(t, spec, full, Options{Method: MethodHeuristic, OrderingLimit: 4})
	prev, _, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := full.Shrink(gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := mustAssigner(t, spec, degraded, Options{Method: MethodHeuristic, OrderingLimit: 4})
	cold, _, err := b.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	warm, rep, err := b.Replan(context.Background(), smallBatch, prev)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := planJSON(t, warm), planJSON(t, cold); got != want {
		t.Fatalf("post-shrink warm plan differs from cold:\nwarm %s\ncold %s", got, want)
	}
	if !rep.WarmStarted {
		t.Fatal("incumbent from the pre-shrink cluster was not adapted")
	}
}

func TestReplanProgressCoversWholeEnumeration(t *testing.T) {
	spec := model.BLOOM560M
	clu := cluster.MustPreset(8) // 4×T4, single node
	var events, pruned int
	opts := Options{Method: MethodHeuristic, OrderingLimit: 4, Parallelism: 1,
		Progress: func(p Progress) {
			if p.Phase == PhaseSearch {
				events++
				if p.Config.Pruned {
					pruned++
				}
			}
		}}
	a := mustAssigner(t, spec, clu, opts)
	cold, coldRep, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	coldEvents := events
	events, pruned = 0, 0
	_, rep, err := a.Replan(context.Background(), smallBatch, cold)
	if err != nil {
		t.Fatal(err)
	}
	if events != coldEvents {
		t.Fatalf("warm search fired %d progress events, cold %d", events, coldEvents)
	}
	if pruned != rep.PrunedConfigs {
		t.Fatalf("progress reported %d pruned configs, report %d", pruned, rep.PrunedConfigs)
	}
	if got, n := len(rep.ConfigStats), coldRep.Configs+coldRep.PrunedConfigs; got != n {
		t.Fatalf("warm ConfigStats has %d entries, cold enumerated %d", got, n)
	}
}

func TestCostCacheSharedAcrossSolvesIsTransparent(t *testing.T) {
	spec := model.BLOOM560M
	clu := cluster.MustPreset(5)
	bare := mustAssigner(t, spec, clu, Options{Method: MethodHeuristic, OrderingLimit: 4})
	want, _, err := bare.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}

	costs := NewCostCache()
	cached := mustAssigner(t, spec, clu, Options{Method: MethodHeuristic, OrderingLimit: 4, Costs: costs})
	first, rep1, err := cached.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	if planJSON(t, first) != planJSON(t, want) {
		t.Fatal("cost cache changed the plan")
	}
	if rep1.CostCacheMisses == 0 {
		t.Fatal("first cached solve recorded no misses")
	}
	if rep1.CostCacheHits == 0 {
		t.Fatal("orderings of one mesh should share device tables (no hits recorded)")
	}
	second, rep2, err := cached.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	if planJSON(t, second) != planJSON(t, want) {
		t.Fatal("warm cache changed the plan on the second solve")
	}
	if rep2.CostCacheMisses != 0 {
		t.Fatalf("second identical solve missed %d times", rep2.CostCacheMisses)
	}
	if costs.Len() == 0 || costs.Hits() <= rep1.CostCacheHits {
		t.Fatalf("cache counters implausible: len=%d hits=%d", costs.Len(), costs.Hits())
	}
}

func TestAdaptIncumbentRejectsForeignPlans(t *testing.T) {
	spec := model.BLOOM560M
	clu := cluster.MustPreset(8)
	a := mustAssigner(t, spec, clu, Options{Method: MethodHeuristic, OrderingLimit: 4})
	configs := a.searchConfigs(smallBatch.Size)

	if adaptIncumbent(nil, configs, a.ind, a.opts.Bits) != nil {
		t.Fatal("nil plan adapted")
	}
	if adaptIncumbent(&plan.Plan{}, configs, a.ind, a.opts.Bits) != nil {
		t.Fatal("empty plan adapted")
	}
	// A plan whose devices do not exist in the current enumeration
	// cannot seed the search.
	foreign, _, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	foreign = clonePlanWithRenamedDevices(t, foreign)
	if adaptIncumbent(foreign, configs, a.ind, a.opts.Bits) != nil {
		t.Fatal("plan with unknown device IDs adapted")
	}
	// Replan degrades gracefully to a cold search for such incumbents.
	p, rep, err := a.Replan(context.Background(), smallBatch, foreign)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarmStarted {
		t.Fatal("WarmStarted reported for an unusable incumbent")
	}
	cold, _, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	if planJSON(t, p) != planJSON(t, cold) {
		t.Fatal("fallback cold search differs from Plan")
	}
}
