package core

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestPlannerDeterministic(t *testing.T) {
	// Identical inputs must produce bit-identical plans.
	run := func() string {
		a := mustAssigner(t, model.OPT30B, cluster.MustPreset(5), Options{Method: MethodHeuristic, Theta: 1})
		p, _, err := a.Plan(context.Background(), smallBatch)
		if err != nil {
			t.Fatal(err)
		}
		return p.String()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("plan changed across runs:\n%s\n%s", first, got)
		}
	}
}

func TestEvaluatorTracksSimulator(t *testing.T) {
	// The analytic Eq. 4 latency and the event simulator share cost
	// primitives; on random feasible plans they must agree within a
	// factor of 2 (the evaluator is a closed form, the simulator adds
	// fill/drain effects). A larger gap means the planner optimizes a
	// fiction.
	spec := model.OPT13B
	clu := cluster.MustPreset(5)
	devs := clu.Devices()
	ind := ind(spec)
	rng := stats.NewRNG(99)
	checked := 0
	for trial := 0; trial < 40 && checked < 12; trial++ {
		batch := workload.Batch{Size: 16, ChunkLen: 256, Chunks: 1, GenTokens: rng.IntRange(4, 48)}
		eta := []int{2, 4, 8}[rng.Intn(3)]
		oc := buildCosts(spec, clu, devs, []int{3, 4, 8, 16}, batch, eta, eta, 16, nil)
		// Random contiguous assignment.
		as := &assignment{stageOf: make([]int, spec.Layers), bitIdx: make([]int, spec.Layers)}
		cut1 := rng.IntRange(1, spec.Layers-3)
		cut2 := rng.IntRange(cut1+1, spec.Layers-2)
		cut3 := rng.IntRange(cut2+1, spec.Layers-1)
		for i := range as.stageOf {
			switch {
			case i < cut1:
				as.stageOf[i] = 0
			case i < cut2:
				as.stageOf[i] = 1
			case i < cut3:
				as.stageOf[i] = 2
			default:
				as.stageOf[i] = 3
			}
			as.bitIdx[i] = rng.Intn(4)
		}
		ev := evaluate(as, oc, ind, 0)
		if !ev.Feasible {
			continue
		}
		p, err := toPlan(as, oc, ind, 0, "test", 16)
		if err != nil {
			t.Fatal(err)
		}
		p.Model = spec.Name
		res, err := pipeline.Simulate(p, spec, clu, batch)
		if err != nil {
			t.Fatalf("simulator rejects a plan the evaluator accepts: %v\n%s", err, p)
		}
		ratio := ev.Latency / res.TotalSeconds
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("evaluator %vs vs simulator %vs (ratio %.2f) for %s",
				ev.Latency, res.TotalSeconds, ratio, p)
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("only %d feasible random plans checked", checked)
	}
}
