package splitquant

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestDefaultMethodIsHeuristic pins the documented default: a System
// built without WithMethod plans with the heuristic.
func TestDefaultMethodIsHeuristic(t *testing.T) {
	sys, err := New("opt-13b", Preset(9))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Plan(FixedWorkload(16, 256, 16), 16)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Method() != string(MethodHeuristic) {
		t.Fatalf("default method = %q, want %q", dep.Method(), MethodHeuristic)
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := New("gpt-4", Preset(1)); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: err = %v, want ErrUnknownModel", err)
	}
	if _, err := New("opt-13b", Preset(9), WithMethod("genetic")); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: err = %v, want ErrUnknownMethod", err)
	}
	sys, err := New("opt-13b", Preset(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Plan(Workload{}, 8); !errors.Is(err, ErrEmptyWorkload) {
		t.Fatalf("empty workload: err = %v, want ErrEmptyWorkload", err)
	}
	big, err := New("llama3.3-70b", Preset(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Plan(FixedWorkload(32, 512, 32), 32); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("oversized model: err = %v, want ErrInfeasible", err)
	}
}

// TestPerCallOptions: a PlanOption on an individual call overrides the
// System default for that call only.
func TestPerCallOptions(t *testing.T) {
	sys, err := New("opt-13b", Preset(9))
	if err != nil {
		t.Fatal(err)
	}
	w := FixedWorkload(16, 256, 16)
	uni, err := sys.Plan(w, 16, WithMethod(MethodUniform))
	if err != nil {
		t.Fatal(err)
	}
	if uni.Method() != string(MethodUniform) {
		t.Fatalf("per-call method = %q, want %q", uni.Method(), MethodUniform)
	}
	dep, err := sys.Plan(w, 16)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Method() != string(MethodHeuristic) {
		t.Fatalf("default method leaked: %q", dep.Method())
	}
	if _, err := sys.Plan(w, 16, WithMethod("genetic")); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("per-call unknown method: err = %v, want ErrUnknownMethod", err)
	}
}

// TestPlanContextCancelled: a cancelled context surfaces through the
// public API as context.Canceled (or a flagged incumbent).
func TestPlanContextCancelled(t *testing.T) {
	sys, err := New("opt-30b", Preset(5), WithTheta(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	dep, err := sys.PlanContext(ctx, FixedWorkload(32, 512, 32), 32)
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("cancelled PlanContext took %v", elapsed)
	}
	if err == nil {
		if !dep.Stats().Cancelled {
			t.Fatal("nil error but Stats().Cancelled is false")
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelismEquivalence: the public WithParallelism knob preserves
// the plan bit-for-bit.
func TestParallelismEquivalence(t *testing.T) {
	planWith := func(workers int) []StageInfo {
		sys, err := New("opt-30b", Preset(5), WithTheta(1), WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		dep, err := sys.Plan(FixedWorkload(32, 512, 32), 32)
		if err != nil {
			t.Fatal(err)
		}
		return dep.Stages()
	}
	seq := planWith(1)
	par := planWith(0)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("plans differ:\nseq %+v\npar %+v", seq, par)
	}
}

// TestStatsAndProgress: Deployment.Stats and the WithProgress hook
// expose consistent solver accounting.
func TestStatsAndProgress(t *testing.T) {
	var events int
	var lastDone, lastTotal int
	sys, err := New("opt-13b", Preset(9), WithTheta(1),
		WithProgress(func(p PlanProgress) {
			events++
			lastDone, lastTotal = p.Done, p.Total
		}))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Plan(FixedWorkload(16, 256, 16), 16)
	if err != nil {
		t.Fatal(err)
	}
	st := dep.Stats()
	if st.Configs == 0 || st.SolveSeconds <= 0 || st.Cancelled {
		t.Fatalf("stats = %+v", st)
	}
	n := st.Configs + st.PrunedConfigs
	if len(st.ConfigStats) != n {
		t.Fatalf("%d config stats for %d configs", len(st.ConfigStats), n)
	}
	if events != n || lastDone != lastTotal || lastTotal != n {
		t.Fatalf("progress saw %d events (last %d/%d) for %d configs", events, lastDone, lastTotal, n)
	}
}
