package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/plan"
)

// stripTiming zeroes the wall-clock fields that legitimately differ
// between runs, so the rest of the plan can be compared bit-for-bit.
func stripTiming(p *plan.Plan) *plan.Plan {
	cp := *p
	cp.SolveSeconds = 0
	return &cp
}

// planWith plans smallBatch at the given worker count and returns the
// timing-stripped plan plus the report.
func planWith(t *testing.T, spec *model.Spec, clu *cluster.Cluster, opts Options, workers int) (*plan.Plan, *Report) {
	t.Helper()
	opts.Parallelism = workers
	a := mustAssigner(t, spec, clu, opts)
	p, rep, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return stripTiming(p), rep
}

// TestParallelMatchesSequential verifies the headline determinism
// guarantee: for every method and several clusters, planning with a
// parallel worker pool yields a plan bit-identical to the sequential
// search, along with identical search statistics.
func TestParallelMatchesSequential(t *testing.T) {
	methods := []Method{MethodHeuristic, MethodAdabits, MethodUniform, MethodHet}
	for preset := 1; preset <= 3; preset++ {
		clu := cluster.MustPreset(preset)
		for _, m := range methods {
			t.Run(fmt.Sprintf("preset%d/%s", preset, m), func(t *testing.T) {
				opts := Options{Method: m, Theta: 1, OrderingLimit: 4}
				seq, seqRep := planWith(t, model.OPT13B, clu, opts, 1)
				for _, workers := range []int{2, 4, 0} {
					par, parRep := planWith(t, model.OPT13B, clu, opts, workers)
					if !reflect.DeepEqual(seq, par) {
						t.Fatalf("workers=%d plan differs:\nseq: %s\npar: %s", workers, seq, par)
					}
					if seqRep.Configs != parRep.Configs {
						t.Fatalf("workers=%d configs %d != %d", workers, parRep.Configs, seqRep.Configs)
					}
				}
			})
		}
	}
}

// TestParallelMatchesSequentialILP is the acceptance case: ILP planning
// for opt-30b on cluster 5 must be bit-identical at any parallelism.
// The node budget (not the wall clock) bounds the solves, so the search
// is deterministic.
func TestParallelMatchesSequentialILP(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP polish is slow")
	}
	clu := cluster.MustPreset(5)
	opts := Options{Method: MethodILP, Theta: 1, OrderingLimit: 2, MaxNodes: 60, ILPCandidates: 2}
	seq, seqRep := planWith(t, model.OPT30B, clu, opts, 1)
	par, parRep := planWith(t, model.OPT30B, clu, opts, 0)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("ILP plan differs:\nseq: %s\npar: %s", seq, par)
	}
	if seqRep.ILPSolves != parRep.ILPSolves || seqRep.Nodes != parRep.Nodes || seqRep.Proved != parRep.Proved {
		t.Fatalf("ILP reports differ: seq %+v par %+v", seqRep, parRep)
	}
}

// TestPlanCancellation checks graceful degradation without reading the
// clock: the Progress hook cancels the context at the first finished
// configuration. Plan must then return either the best incumbent
// (Cancelled=true) or ctx.Err(); only configurations already in flight
// on the other workers may still finish (none when sequential); and the
// worker pool must not leak goroutines.
func TestPlanCancellation(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			events, total := 0, 0
			hook := func(p Progress) {
				events++
				total = p.Total
				cancel() // the hook runs serialized, so the first event cancels
			}
			a := mustAssigner(t, model.OPT30B, cluster.MustPreset(5),
				Options{Method: MethodHeuristic, Theta: 1, Parallelism: workers, Progress: hook})
			p, rep, err := a.Plan(ctx, smallBatch)
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled or an incumbent", err)
				}
			} else if p == nil || !rep.Cancelled {
				t.Fatalf("nil error but plan=%v cancelled=%v", p, rep.Cancelled)
			}
			// The cancelling configuration is the first event; each other
			// worker can finish at most the one it was solving.
			if after := events - 1; after < 0 || after > workers-1 {
				t.Fatalf("%d configurations finished after the cancel, want at most %d", after, workers-1)
			}
			if rep.Configs != events || events >= total {
				t.Fatalf("report counts %d configs, hook saw %d of %d", rep.Configs, events, total)
			}
			// runPool waits for its workers, which may still be exiting.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("goroutines leaked: %d before, %d after", before, n)
			}
		})
	}
}

// TestPlanPreCancelled: a context cancelled before the call returns its
// error immediately, with no partial plan.
func TestPlanPreCancelled(t *testing.T) {
	a := mustAssigner(t, model.OPT13B, cluster.MustPreset(9), Options{Method: MethodHeuristic, Theta: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, rep, err := a.Plan(ctx, smallBatch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p != nil {
		t.Fatalf("got plan %v from pre-cancelled context", p)
	}
	if rep == nil || !rep.Cancelled {
		t.Fatalf("report = %+v, want Cancelled", rep)
	}
}

// TestBaselineCancellation covers the baseline search path too.
func TestBaselineCancellation(t *testing.T) {
	a := mustAssigner(t, model.OPT13B, cluster.MustPreset(9), Options{Method: MethodHet, Theta: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := a.Plan(ctx, smallBatch); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestNilContext: a nil context plans as context.Background().
func TestNilContext(t *testing.T) {
	a := mustAssigner(t, model.OPT13B, cluster.MustPreset(9), Options{Method: MethodHeuristic, Theta: 1})
	var nilCtx context.Context
	if _, _, err := a.Plan(nilCtx, smallBatch); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownMethodRejected: New validates the method eagerly.
func TestUnknownMethodRejected(t *testing.T) {
	spec := model.OPT13B
	_, err := New(spec, cluster.MustPreset(9), ind(spec), Options{Method: "simulated-annealing"})
	if !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("err = %v, want ErrUnknownMethod", err)
	}
}

// TestInfeasibleSentinel: an impossible placement wraps ErrInfeasible.
func TestInfeasibleSentinel(t *testing.T) {
	a := mustAssigner(t, model.Llama70B, cluster.MustPreset(1), Options{Method: MethodHeuristic, Theta: 1})
	_, _, err := a.Plan(context.Background(), smallBatch)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestProgressEvents: the hook sees every configuration exactly once,
// with monotonically increasing Done and a sane Total, even under a
// parallel pool.
func TestProgressEvents(t *testing.T) {
	var events []Progress
	opts := Options{
		Method: MethodHeuristic, Theta: 1, OrderingLimit: 4,
		Progress: func(p Progress) { events = append(events, p) },
	}
	a := mustAssigner(t, model.OPT13B, cluster.MustPreset(3), opts)
	_, rep, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	n := len(a.searchConfigs(smallBatch.Size))
	if rep.Configs+rep.PrunedConfigs != n {
		t.Fatalf("evaluated %d + pruned %d != %d enumerated configs", rep.Configs, rep.PrunedConfigs, n)
	}
	if len(events) != n {
		t.Fatalf("%d events for %d configs", len(events), n)
	}
	seen := map[string]bool{}
	pruned := 0
	for i, e := range events {
		if e.Phase != PhaseSearch {
			t.Fatalf("event %d phase %q", i, e.Phase)
		}
		if e.Done != i+1 || e.Total != n {
			t.Fatalf("event %d = %d/%d, want %d/%d", i, e.Done, e.Total, i+1, n)
		}
		if e.Config.Key == "" || seen[e.Config.Key] {
			t.Fatalf("event %d key %q duplicated or empty", i, e.Config.Key)
		}
		seen[e.Config.Key] = true
		if e.Config.Pruned {
			pruned++
		}
	}
	if pruned != rep.PrunedConfigs {
		t.Fatalf("%d pruned events, report %d", pruned, rep.PrunedConfigs)
	}
	if len(rep.ConfigStats) != n {
		t.Fatalf("%d config stats for %d configs", len(rep.ConfigStats), n)
	}
}
