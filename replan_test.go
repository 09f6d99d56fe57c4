package splitquant

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// replanModel keeps the equivalence sweep fast: the smallest built-in
// architecture with a heavily capped ordering enumeration still
// exercises every preset topology.
const replanModel = "bloom-560m"

func replanOpts() []Option {
	return []Option{WithOrderingLimit(4)}
}

// shrinkSpec removes one GPU from the last node (dropping the node when
// it empties), mimicking a preemption-driven cluster.Shrink. ok is
// false when the cluster has a single GPU left.
func shrinkSpec(cs ClusterSpec) (ClusterSpec, bool) {
	total := 0
	for _, n := range cs.Nodes {
		total += n.Count
	}
	if total <= 1 {
		return cs, false
	}
	out := cs
	out.Nodes = append([]Node(nil), cs.Nodes...)
	last := len(out.Nodes) - 1
	out.Nodes[last].Count--
	if out.Nodes[last].Count == 0 {
		out.Nodes = out.Nodes[:last]
	}
	out.Name = cs.Name + "-degraded"
	return out, true
}

// fingerprintDeployment captures everything plan-equivalence cares
// about (stages, bitwidths, micro-batches, quality, objective source).
type deploymentKey struct {
	Stages  []StageInfo
	Eta, Xi int
	Quality float64
	Method  string
}

func keyOf(d *Deployment) deploymentKey {
	eta, xi := d.MicroBatches()
	return deploymentKey{Stages: d.Stages(), Eta: eta, Xi: xi, Quality: d.QualityPenalty(), Method: d.Method()}
}

// coldPlan plans w at batch 16 on a new System over cs, whose plan memo
// is empty.
func coldPlan(t *testing.T, cs ClusterSpec, w Workload, opts ...PlanOption) *Deployment {
	t.Helper()
	sys, err := New(replanModel, cs, replanOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.PlanContext(context.Background(), w, 16, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestReplanMatchesColdAcrossPresets degrades every preset by one GPU
// and checks that warm-starting Replan from the full-cluster plan
// produces the bit-identical plan a cold search finds on the degraded
// cluster — while evaluating strictly no more configurations.
func TestReplanMatchesColdAcrossPresets(t *testing.T) {
	w := Summarization(1)
	for n := 1; n <= 10; n++ {
		t.Run(fmt.Sprintf("preset%d", n), func(t *testing.T) {
			full := Preset(n)
			degraded, ok := shrinkSpec(full)
			if !ok {
				t.Skipf("preset %d has a single GPU; nothing to shrink", n)
			}
			sys, err := New(replanModel, full, replanOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := sys.Plan(w, 16)
			if err != nil {
				t.Fatal(err)
			}
			deg, err := sys.Fork(degraded)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := deg.Replan(context.Background(), prev, w, 16)
			if err != nil {
				t.Fatal(err)
			}
			// The cold solve runs in a family of its own: in deg's, the
			// plan memo would answer it with the warm plan.
			cold := coldPlan(t, degraded, w)
			if !reflect.DeepEqual(keyOf(warm), keyOf(cold)) {
				t.Fatalf("warm plan differs from cold:\nwarm %+v\ncold %+v", keyOf(warm), keyOf(cold))
			}
			ws, cs := warm.Stats(), cold.Stats()
			if ws.Reused {
				t.Fatal("warm replan on a changed cluster reported Reused")
			}
			if ws.Configs+ws.PrunedConfigs != cs.Configs+cs.PrunedConfigs {
				t.Fatalf("warm evaluated %d + pruned %d configs, cold enumerated %d",
					ws.Configs, ws.PrunedConfigs, cs.Configs+cs.PrunedConfigs)
			}
		})
	}
}

// TestReplanMatchesColdAcrossWorkloads varies the request profile and
// per-call options on one topology.
func TestReplanMatchesColdAcrossWorkloads(t *testing.T) {
	cases := []struct {
		name string
		w    Workload
		opts []PlanOption
	}{
		{"chat", Chat(7), nil},
		{"longcontext", LongContext(7), nil},
		{"fixed-theta1", FixedWorkload(16, 512, 32), []PlanOption{WithTheta(1)}},
		{"ilp", FixedWorkload(16, 256, 16), []PlanOption{WithMethod(MethodILP)}},
	}
	full := Preset(5)
	degraded, _ := shrinkSpec(full)
	sys, err := New(replanModel, full, replanOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := sys.Fork(degraded)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev, err := sys.Plan(tc.w, 16, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := deg.Replan(context.Background(), prev, tc.w, 16, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			cold := coldPlan(t, degraded, tc.w, tc.opts...)
			if !reflect.DeepEqual(keyOf(warm), keyOf(cold)) {
				t.Fatalf("warm plan differs from cold:\nwarm %+v\ncold %+v", keyOf(warm), keyOf(cold))
			}
		})
	}
}

// TestReplanUnchangedClusterReuses pins the identical-inputs fast path:
// when nothing changed since prev was planned, Replan answers without
// searching.
func TestReplanUnchangedClusterReuses(t *testing.T) {
	sys, err := New(replanModel, Preset(5), replanOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	w := Summarization(1)
	prev, err := sys.Plan(w, 16)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sys.Replan(context.Background(), prev, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats().Reused {
		t.Fatal("identical replan did not reuse the previous deployment")
	}
	if !reflect.DeepEqual(keyOf(again), keyOf(prev)) {
		t.Fatal("reused deployment differs from the original")
	}
	// A different per-call option invalidates the fast path.
	fresh, err := sys.Replan(context.Background(), prev, w, 16, WithTheta(1))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats().Reused {
		t.Fatal("replan with changed options reported Reused")
	}
}

// TestReplanRestoreHitsMemo pins the restore scenario: shrink, replan,
// then restore the original topology — the Fork family's plan memo
// still holds the full-cluster solve, so no search runs.
func TestReplanRestoreHitsMemo(t *testing.T) {
	full := Preset(5)
	degraded, _ := shrinkSpec(full)
	sys, err := New(replanModel, full, replanOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	w := Summarization(1)
	prev, err := sys.Plan(w, 16)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := sys.Fork(degraded)
	if err != nil {
		t.Fatal(err)
	}
	onDegraded, err := deg.Replan(context.Background(), prev, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := deg.Fork(full)
	if err != nil {
		t.Fatal(err)
	}
	back, err := restored.Replan(context.Background(), onDegraded, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Stats().Reused {
		t.Fatal("replan after restore did not hit the plan memo")
	}
	if !reflect.DeepEqual(keyOf(back), keyOf(prev)) {
		t.Fatal("memoized plan differs from the original full-cluster plan")
	}
}

// TestReplanConcurrentSolves exercises the shared cost cache, indicator
// cache and plan memo under the race detector.
func TestReplanConcurrentSolves(t *testing.T) {
	full := Preset(5)
	degraded, _ := shrinkSpec(full)
	sys, err := New(replanModel, full, replanOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	w := Summarization(1)
	prev, err := sys.Plan(w, 16)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := sys.Fork(degraded)
	if err != nil {
		t.Fatal(err)
	}
	want, err := deg.PlanContext(context.Background(), w, 16)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			var d *Deployment
			var err error
			if i%2 == 0 {
				d, err = deg.Replan(context.Background(), prev, w, 16)
			} else {
				d, err = deg.PlanContext(context.Background(), w, 16)
			}
			if err == nil && !reflect.DeepEqual(keyOf(d), keyOf(want)) {
				err = fmt.Errorf("concurrent solve %d produced a different plan", i)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
