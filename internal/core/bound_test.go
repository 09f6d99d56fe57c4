package core

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/plan"
)

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

// sameSearch fails unless a re-plan returned the cold plan after
// evaluating and pruning exactly the configurations the cold search did.
func sameSearch(t *testing.T, replan, cold *plan.Plan, replanRep, coldRep *Report) {
	t.Helper()
	if got, want := planJSON(t, replan), planJSON(t, cold); got != want {
		t.Fatalf("re-plan differs from cold:\nre-plan %s\ncold    %s", got, want)
	}
	if replanRep.Configs != coldRep.Configs || replanRep.PrunedConfigs != coldRep.PrunedConfigs {
		t.Fatalf("re-plan evaluated %d and pruned %d configs, cold %d and %d",
			replanRep.Configs, replanRep.PrunedConfigs, coldRep.Configs, coldRep.PrunedConfigs)
	}
}

// TestReplanBitIdenticalToColdSameCluster re-plans an unchanged cluster
// through the cost cache its first plan filled: the bound-ordered search
// evaluates and prunes the same configurations, and the accounting covers
// the enumeration.
func TestReplanBitIdenticalToColdSameCluster(t *testing.T) {
	for _, method := range []Method{MethodHeuristic, MethodILP} {
		t.Run(string(method), func(t *testing.T) {
			spec := model.BLOOM560M
			clu := cluster.MustPreset(5)
			opts := Options{Method: method, OrderingLimit: 4, Costs: NewCostCache()}
			a := mustAssigner(t, spec, clu, opts)
			cold, coldRep, err := a.Plan(context.Background(), smallBatch)
			if err != nil {
				t.Fatal(err)
			}
			again, rep, err := a.Plan(context.Background(), smallBatch)
			if err != nil {
				t.Fatal(err)
			}
			sameSearch(t, again, cold, rep, coldRep)
			if n := len(a.searchConfigs(smallBatch.Size)); rep.Configs+rep.PrunedConfigs != n {
				t.Fatalf("evaluated %d + pruned %d != %d enumerated configs",
					rep.Configs, rep.PrunedConfigs, n)
			}
			if rep.PrunedConfigs == 0 {
				t.Logf("note: no configurations pruned for %s (bound too loose on this instance)", method)
			}
		})
	}
}

// TestReplanBitIdenticalToColdAfterShrink plans the full cluster, then
// re-plans the cluster left after a preemption through the same cost
// cache: the plan and the search's accounting equal a cold plan's on the
// shrunk cluster, and the re-plan reuses the full cluster's costs.
func TestReplanBitIdenticalToColdAfterShrink(t *testing.T) {
	spec := model.BLOOM560M
	full := cluster.MustPreset(5) // 3×T4 + 1×V100
	costs := NewCostCache()
	a := mustAssigner(t, spec, full, Options{Method: MethodHeuristic, OrderingLimit: 4, Costs: costs})
	if _, _, err := a.Plan(context.Background(), smallBatch); err != nil {
		t.Fatal(err)
	}
	degraded, err := full.Shrink(gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cold, coldRep, err := mustAssigner(t, spec, degraded, Options{Method: MethodHeuristic, OrderingLimit: 4}).
		Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	b := mustAssigner(t, spec, degraded, Options{Method: MethodHeuristic, OrderingLimit: 4, Costs: costs})
	replan, rep, err := b.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	sameSearch(t, replan, cold, rep, coldRep)
	if rep.CostCacheHits == 0 {
		t.Fatal("the re-plan reused none of the full cluster's costs")
	}
}

func TestReplanProgressCoversWholeEnumeration(t *testing.T) {
	spec := model.BLOOM560M
	clu := cluster.MustPreset(8) // 4×T4, single node
	var events, pruned int
	opts := Options{Method: MethodHeuristic, OrderingLimit: 4, Parallelism: 1, Costs: NewCostCache(),
		Progress: func(p Progress) {
			if p.Phase == PhaseSearch {
				events++
				if p.Config.Pruned {
					pruned++
				}
			}
		}}
	a := mustAssigner(t, spec, clu, opts)
	if _, _, err := a.Plan(context.Background(), smallBatch); err != nil {
		t.Fatal(err)
	}
	events, pruned = 0, 0
	_, rep, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.searchConfigs(smallBatch.Size)); events != n {
		t.Fatalf("re-plan fired %d progress events, enumeration has %d", events, n)
	}
	if pruned != rep.PrunedConfigs {
		t.Fatalf("progress reported %d pruned configs, report %d", pruned, rep.PrunedConfigs)
	}
	if got, n := len(rep.ConfigStats), rep.Configs+rep.PrunedConfigs; got != n {
		t.Fatalf("re-plan ConfigStats has %d entries, evaluated + pruned is %d", got, n)
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

// FuzzOptimisticBound checks that the search's pruning bounds never
// exceed the objective of a feasible assignment under the
// configuration: optimisticBound, and the Lagrangian bound stepped
// toward a target twice that objective (it returns the best value of
// every step). On instances of at most bruteForceLayers layers it also
// checks the Lagrangian bound, pushed toward twice the optimum, against
// bruteForceBest's optimum. Instances from 30 up are memory-tight (see
// deltaInstance), so the memory multipliers are exercised.
func FuzzOptimisticBound(f *testing.F) {
	f.Add(uint8(0), uint8(0), 10.0, []byte{})
	f.Add(uint8(7), uint8(10), 1.0, []byte{3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2})
	f.Add(uint8(13), uint8(5), 0.0, []byte{1, 1, 1, 1, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(24), uint8(9), 100.0, []byte{9, 0, 2, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(29), uint8(3), 0.5, []byte{0, 4, 0, 4, 3, 3, 3})
	f.Add(uint8(30), uint8(4), 1.0, []byte{1, 0, 3, 0, 1, 2, 3})
	f.Add(uint8(36), uint8(5), 10.0, []byte{0, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(41), uint8(2), 0.1, []byte{2, 1, 0, 0, 0, 0})
	f.Add(uint8(47), uint8(3), 1.0, []byte{})
	f.Add(uint8(52), uint8(9), 1.0, []byte{4, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, instance, layers uint8, theta float64, assign []byte) {
		oc, ind, theta, as := fuzzAssignment(t, instance, layers, theta, assign)
		tw := thetaOmega(ind, len(oc.bits), theta)
		var lg lagrangian
		if ev := evaluate(as, oc, ind, theta); ev.Feasible {
			if lb := optimisticBound(oc, ind, theta); lb > ev.Objective {
				t.Fatalf("optimistic bound %v exceeds the objective %v of feasible %v", lb, ev.Objective, as)
			}
			if lb := lg.bound(oc, tw, 2*ev.Objective, lagrangeSteps); lb > ev.Objective {
				t.Fatalf("Lagrangian bound %v exceeds the objective %v of feasible %v", lb, ev.Objective, as)
			}
		}
		if ind.Layers() > bruteForceLayers {
			return
		}
		best, _ := bruteForceBest(oc, ind, theta)
		if lb := lg.bound(oc, tw, 2*best, lagrangeSteps); lb > best {
			t.Fatalf("Lagrangian bound %v exceeds the brute-force optimum %v", lb, best)
		}
	})
}

// bruteForceLayers is the largest instance FuzzOptimisticBound checks
// against bruteForceBest.
const bruteForceLayers = 7
