package scheduler

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/pipeline"
)

func twoPoolFleet(t *testing.T) *FleetState {
	t.Helper()
	return NewFleetState([]Resource{
		{Name: "mixed", Cluster: cluster.MustPreset(7), Availability: 0.5}, // 4×T4 + 2×V100
		{Name: "v100s", Cluster: cluster.MustPreset(9), Availability: 0.8}, // 4×V100
	})
}

func TestFleetStatePreemptRestore(t *testing.T) {
	f := twoPoolFleet(t)

	v, err := f.Snapshot("mixed")
	if err != nil {
		t.Fatal(err)
	}
	if v.Generation != 0 || v.Devices != 6 || v.TotalDevices != 6 {
		t.Fatalf("intact snapshot = %+v", v)
	}

	v, err = f.Preempt("mixed", gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Generation != 1 || v.Devices != 4 || v.TotalDevices != 6 {
		t.Fatalf("degraded view = %+v", v)
	}
	if v.Cluster.ClassCount(gpu.T4) != 2 || v.Cluster.ClassCount(gpu.V100) != 2 {
		t.Fatalf("degraded cluster = %s", v.Cluster)
	}
	if v.Preempted[gpu.T4] != 2 || v.Capacity[gpu.T4] != 4 {
		t.Fatalf("outage bookkeeping = %+v", v)
	}
	// The other pool is untouched.
	if g := f.Generation("v100s"); g != 0 {
		t.Fatalf("v100s generation = %d", g)
	}

	// Restore brings the devices and a fresh generation back.
	v, err = f.Restore("mixed", gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Generation != 2 || v.Devices != 6 || v.TotalDevices != 6 {
		t.Fatalf("restored view = %+v", v)
	}
	if f.Preemptions() != 1 {
		t.Fatalf("preemption count = %d", f.Preemptions())
	}
}

func TestFleetStateFullOutage(t *testing.T) {
	f := twoPoolFleet(t)
	if _, err := f.Preempt("v100s", gpu.V100, 4); err != nil {
		t.Fatal(err)
	}
	v, err := f.Snapshot("v100s")
	if err != nil {
		t.Fatal(err)
	}
	if v.Cluster != nil || v.Devices != 0 {
		t.Fatalf("fully reclaimed pool should expose a nil cluster, got %+v", v)
	}
	if _, err := f.Restore("v100s", gpu.V100, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Snapshot("v100s"); v.Devices != 1 || v.Cluster == nil {
		t.Fatalf("partial restore = %+v", v)
	}
}

func TestFleetStateValidation(t *testing.T) {
	f := twoPoolFleet(t)
	if _, err := f.Preempt("nope", gpu.T4, 1); err == nil {
		t.Fatal("unknown pool accepted")
	}
	if _, err := f.Preempt("mixed", gpu.T4, 0); err == nil {
		t.Fatal("non-positive count accepted")
	}
	if _, err := f.Preempt("mixed", gpu.T4, 5); err == nil {
		t.Fatal("over-reclaim accepted")
	}
	if _, err := f.Preempt("mixed", gpu.A100, 1); err == nil {
		t.Fatal("absent class accepted")
	}
	if _, err := f.Restore("mixed", gpu.T4, 1); err == nil {
		t.Fatal("restore without outage accepted")
	}
	if _, err := f.Snapshot("nope"); err == nil {
		t.Fatal("unknown pool snapshot accepted")
	}
}

func TestFleetStateReset(t *testing.T) {
	f := twoPoolFleet(t)
	f.Preempt("mixed", gpu.T4, 1)
	f.Preempt("v100s", gpu.V100, 2)
	f.Reset()
	for _, v := range f.Views() {
		if v.Devices < v.TotalDevices {
			t.Fatalf("pool %s still degraded after reset: %+v", v.Resource, v)
		}
	}
	// Reset bumps the generation of degraded pools so pollers notice.
	if g := f.Generation("mixed"); g != 2 {
		t.Fatalf("mixed generation after reset = %d", g)
	}
}

// TestFleetStateConcurrent exercises the view under the race detector:
// injectors preempt/restore while pollers snapshot.
func TestFleetStateConcurrent(t *testing.T) {
	f := twoPoolFleet(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := f.Preempt("mixed", gpu.T4, 1); err == nil {
					f.Restore("mixed", gpu.T4, 1)
				}
				f.Snapshot("mixed")
				f.Generation("v100s")
				f.Views()
			}
		}()
	}
	wg.Wait()
	f.Reset()
	if v, _ := f.Snapshot("mixed"); v.Devices != 6 {
		t.Fatalf("devices leaked: %+v", v)
	}
}

// TestFleetStateExpandContract: the autoscaler's scale-up/down actions
// grow and shrink a pool's intact capacity, compose with preemption
// (reclaimed devices cannot be contracted away), and survive Reset.
func TestFleetStateExpandContract(t *testing.T) {
	f := twoPoolFleet(t)

	v, err := f.Expand("mixed", gpu.V100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Generation != 1 || v.Devices != 8 || v.TotalDevices != 8 {
		t.Fatalf("expanded view = %+v", v)
	}
	if v.Capacity[gpu.V100] != 4 || v.Cluster.ClassCount(gpu.V100) != 4 {
		t.Fatalf("expanded capacity = %+v cluster = %s", v.Capacity, v.Cluster)
	}

	// Expansion is intact capacity: Reset keeps it.
	f.Reset()
	if v, _ = f.Snapshot("mixed"); v.TotalDevices != 8 {
		t.Fatalf("Reset dropped expansion: %+v", v)
	}

	// Preempted devices are owed back and cannot be contracted away.
	if _, err = f.Preempt("mixed", gpu.V100, 3); err != nil {
		t.Fatal(err)
	}
	if _, err = f.Contract("mixed", gpu.V100, 2); err == nil {
		t.Fatal("contract should refuse reclaimed devices")
	}
	if _, err = f.Restore("mixed", gpu.V100, 3); err != nil {
		t.Fatal(err)
	}

	v, err = f.Contract("mixed", gpu.V100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Devices != 6 || v.TotalDevices != 6 || v.Capacity[gpu.V100] != 2 {
		t.Fatalf("contracted view = %+v", v)
	}
	if v.Cluster.ClassCount(gpu.V100) != 2 || v.Cluster.ClassCount(gpu.T4) != 4 {
		t.Fatalf("contracted cluster = %s", v.Cluster)
	}

	// Expanding a class the pool never had appends a scale node.
	v, err = f.Expand("v100s", gpu.A100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Capacity[gpu.A100] != 1 || v.Cluster.ClassCount(gpu.A100) != 1 {
		t.Fatalf("new-class expansion = %+v cluster = %s", v.Capacity, v.Cluster)
	}

	// Validation: unknown pools, non-positive counts, emptying the pool.
	if _, err = f.Expand("nope", gpu.T4, 1); err == nil {
		t.Fatal("expand unknown pool")
	}
	if _, err = f.Contract("nope", gpu.T4, 1); err == nil {
		t.Fatal("contract unknown pool")
	}
	if _, err = f.Expand("mixed", gpu.T4, 0); err == nil {
		t.Fatal("expand zero")
	}
	if _, err = f.Contract("mixed", gpu.T4, 0); err == nil {
		t.Fatal("contract zero")
	}
	if _, err = f.Contract("mixed", gpu.T4, 4); err != nil {
		t.Fatal(err)
	}
	if _, err = f.Contract("mixed", gpu.V100, 2); err == nil {
		t.Fatal("contracting the last devices should fail")
	}
}

// TestClusterGrowShrinkRoundTrip: Grow is Shrink's inverse on node
// layout, so rebinding by device ID keeps working across a scale cycle.
func TestClusterGrowShrinkRoundTrip(t *testing.T) {
	c := cluster.MustPreset(7) // 4×T4 + 2×V100
	small, err := c.Shrink(gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := small.Grow(gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != c.String() {
		t.Fatalf("round trip: %s != %s", back, c)
	}
	if _, err := c.Grow(gpu.T4, 0); err == nil {
		t.Fatal("grow zero")
	}
	if _, err := c.Grow("H999", 1); err == nil {
		t.Fatal("grow unknown class")
	}
}

// TestPlanCacheSimulationAcrossPreemptRestore follows one pool through a
// preemption, a full restore and a second preemption, planning through
// one PlanCache. The restore hands back the intact cluster pointer, so
// its hit reuses the simulation memoized for it; the second preemption
// builds a new cluster pointer with the first one's fingerprint, so its
// hit rebinds and simulates afresh. Every simulation must equal a fresh
// pipeline.Simulate.
func TestPlanCacheSimulationAcrossPreemptRestore(t *testing.T) {
	f := twoPoolFleet(t)
	spec := model.BLOOM560M
	batch := fixedBatch(16)
	cache := core.NewPlanCache(4)
	run := func(step string, v View, wantHit bool) *pipeline.Result {
		t.Helper()
		p, sim, _, hit, err := cache.PlanAndSimulate(context.Background(), spec, v.Cluster, batch, fastPlanner())
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if hit != wantHit {
			t.Fatalf("%s: hit = %v, want %v", step, hit, wantHit)
		}
		fresh, err := pipeline.Simulate(p, spec, v.Cluster, batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sim, fresh) {
			t.Fatalf("%s: simulation %+v, fresh %+v", step, sim, fresh)
		}
		return sim
	}

	intact, err := f.Snapshot("mixed")
	if err != nil {
		t.Fatal(err)
	}
	run("intact, solved", intact, false)
	memo := run("intact, cached", intact, true)
	degraded, err := f.Preempt("mixed", gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	run("degraded, solved", degraded, false)
	degradedMemo := run("degraded, cached", degraded, true)
	restored, err := f.Restore("mixed", gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Cluster != intact.Cluster {
		t.Fatal("a full restore built a new cluster")
	}
	if run("restored", restored, true) != memo {
		t.Fatal("the restored pool's hit simulated again on an unchanged cluster")
	}
	again, err := f.Preempt("mixed", gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cluster == degraded.Cluster || again.Cluster.Fingerprint() != degraded.Cluster.Fingerprint() {
		t.Fatal("the second preemption should build a new cluster of the first one's fingerprint")
	}
	if run("degraded again", again, true) == degradedMemo {
		t.Fatal("a hit on a new cluster pointer kept the simulation bound to the old one")
	}
}
