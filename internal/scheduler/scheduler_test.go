package scheduler

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

func fixedBatch(B int) workload.Batch {
	return workload.Batch{Size: B, ChunkLen: 512, Chunks: 1, GenTokens: 32}
}

func testResources() []Resource {
	return []Resource{
		{Name: "harvest-5", Cluster: cluster.MustPreset(5), Availability: 0.6},
		{Name: "harvest-8", Cluster: cluster.MustPreset(8), Availability: 0.9},
		{Name: "harvest-9", Cluster: cluster.MustPreset(9), Availability: 0.4},
	}
}

func fastPlanner() core.Options {
	return core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4}
}

func TestBuildBasicSchedule(t *testing.T) {
	jobs := []Job{
		{ID: "summarize-30b", Model: "opt-30b", Batch: fixedBatch(32), Requests: 320},
		{ID: "eval-13b", Model: "opt-13b", Batch: fixedBatch(32), Requests: 640},
		{ID: "synth-13b", Model: "opt-13b", Batch: fixedBatch(16), Requests: 160},
	}
	sched, err := Build(context.Background(), jobs, testResources(), fastPlanner())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Unplaceable) != 0 {
		t.Fatalf("unplaceable jobs: %v", sched.Unplaceable)
	}
	if len(sched.Assignments) != len(jobs) {
		t.Fatalf("assignments = %d", len(sched.Assignments))
	}
	assigned := map[string]bool{}
	for _, a := range sched.Assignments {
		if assigned[a.JobID] {
			t.Fatalf("job %s assigned twice", a.JobID)
		}
		assigned[a.JobID] = true
		if a.Duration <= 0 || a.Throughput <= 0 || a.Plan == nil {
			t.Fatalf("degenerate assignment %+v", a)
		}
	}
	// Makespan equals the max resource load and is at most the sum of
	// all durations (sanity of the LPT greedy).
	var total, maxLoad float64
	for _, l := range sched.Loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if sched.Makespan != maxLoad {
		t.Fatalf("makespan %v != max load %v", sched.Makespan, maxLoad)
	}
	if sched.Makespan > total {
		t.Fatal("makespan exceeds serial time")
	}
}

func TestParallelismBeatsSingleResource(t *testing.T) {
	jobs := []Job{
		{ID: "a", Model: "opt-13b", Batch: fixedBatch(32), Requests: 640},
		{ID: "b", Model: "opt-13b", Batch: fixedBatch(32), Requests: 640},
		{ID: "c", Model: "opt-13b", Batch: fixedBatch(32), Requests: 640},
	}
	multi, err := Build(context.Background(), jobs, testResources(), fastPlanner())
	if err != nil {
		t.Fatal(err)
	}
	single, err := Build(context.Background(), jobs, testResources()[:1], fastPlanner())
	if err != nil {
		t.Fatal(err)
	}
	if multi.Makespan >= single.Makespan {
		t.Fatalf("3 resources makespan %v not below 1 resource %v", multi.Makespan, single.Makespan)
	}
}

func TestAvailabilityStretchesDuration(t *testing.T) {
	jobs := []Job{{ID: "a", Model: "opt-13b", Batch: fixedBatch(16), Requests: 64}}
	mk := func(avail float64) float64 {
		res := []Resource{{Name: "r", Cluster: cluster.MustPreset(9), Availability: avail}}
		s, err := Build(context.Background(), jobs, res, fastPlanner())
		if err != nil {
			t.Fatal(err)
		}
		return s.Makespan
	}
	full, half := mk(1.0), mk(0.5)
	if half/full < 1.9 || half/full > 2.1 {
		t.Fatalf("halving availability should double duration: %v vs %v", full, half)
	}
}

func TestUnplaceableJobReported(t *testing.T) {
	jobs := []Job{
		{ID: "huge", Model: "llama3.3-70b", Batch: fixedBatch(32), Requests: 32},
		{ID: "ok", Model: "opt-13b", Batch: fixedBatch(16), Requests: 32},
	}
	// Only cluster 1 (a single V100-32G): the 70B model cannot fit even
	// at 3 bits once embeddings and the batch's KV cache are counted.
	res := []Resource{{Name: "small", Cluster: cluster.MustPreset(1), Availability: 1}}
	sched, err := Build(context.Background(), jobs, res, fastPlanner())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Unplaceable) != 1 || sched.Unplaceable[0] != "huge" {
		t.Fatalf("unplaceable = %v", sched.Unplaceable)
	}
	if len(sched.Assignments) != 1 || sched.Assignments[0].JobID != "ok" {
		t.Fatalf("assignments = %+v", sched.Assignments)
	}
}

func TestValidation(t *testing.T) {
	good := Job{ID: "a", Model: "opt-13b", Batch: fixedBatch(8), Requests: 8}
	res := testResources()
	if _, err := Build(context.Background(), nil, res, fastPlanner()); err == nil {
		t.Fatal("no jobs accepted")
	}
	if _, err := Build(context.Background(), []Job{good}, nil, fastPlanner()); err == nil {
		t.Fatal("no resources accepted")
	}
	bad := good
	bad.Model = "gpt-5"
	if _, err := Build(context.Background(), []Job{bad}, res, fastPlanner()); err == nil {
		t.Fatal("unknown model accepted")
	}
	bad2 := good
	bad2.Requests = 0
	if _, err := Build(context.Background(), []Job{bad2}, res, fastPlanner()); err == nil {
		t.Fatal("zero requests accepted")
	}
	dup := []Resource{res[0], res[0]}
	if _, err := Build(context.Background(), []Job{good}, dup, fastPlanner()); err == nil {
		t.Fatal("duplicate resource accepted")
	}
	badRes := []Resource{{Name: "x", Cluster: cluster.MustPreset(1), Availability: 2}}
	if _, err := Build(context.Background(), []Job{good}, badRes, fastPlanner()); err == nil {
		t.Fatal("availability > 1 accepted")
	}
}

func TestBigJobsAvoidSlowClusters(t *testing.T) {
	// With one fast (cluster 9, 4×V100) and one weak resource (cluster
	// 8, 4×T4 at low availability), the heavy job should land on the
	// fast one.
	jobs := []Job{
		{ID: "heavy", Model: "opt-30b", Batch: fixedBatch(32), Requests: 960},
		{ID: "light", Model: "opt-13b", Batch: fixedBatch(16), Requests: 16},
	}
	res := []Resource{
		{Name: "fast", Cluster: cluster.MustPreset(9), Availability: 1},
		{Name: "weak", Cluster: cluster.MustPreset(8), Availability: 0.3},
	}
	sched, err := Build(context.Background(), jobs, res, fastPlanner())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sched.Assignments {
		if a.JobID == "heavy" && a.Resource != "fast" {
			t.Fatalf("heavy job scheduled on %s", a.Resource)
		}
	}
}

// TestRebuildMatchesBuildOnDegradedFleet: warm-starting a re-plan from
// the previous schedule must produce exactly the schedule a cold Build
// finds on the degraded fleet.
func TestRebuildMatchesBuildOnDegradedFleet(t *testing.T) {
	jobs := []Job{
		{ID: "summarize-13b", Model: "opt-13b", Batch: fixedBatch(32), Requests: 320},
		{ID: "classify-1.3b", Model: "opt-1.3b", Batch: fixedBatch(32), Requests: 640},
	}
	full := testResources()
	prev, err := Build(context.Background(), jobs, full, fastPlanner())
	if err != nil {
		t.Fatal(err)
	}
	// Degrade every pool by one device of its first class.
	var degraded []Resource
	for _, r := range full {
		clu := r.Cluster
		for _, nd := range clu.Nodes {
			next, err := clu.Shrink(nd.Class, 1)
			if err == nil {
				clu = next
				break
			}
		}
		if clu.TotalDevices() == 0 {
			continue
		}
		degraded = append(degraded, Resource{Name: r.Name, Cluster: clu, Availability: r.Availability})
	}
	cold, err := Build(context.Background(), jobs, degraded, fastPlanner())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Rebuild(context.Background(), jobs, degraded, fastPlanner(), prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Assignments) != len(cold.Assignments) {
		t.Fatalf("warm placed %d jobs, cold %d", len(warm.Assignments), len(cold.Assignments))
	}
	for i := range warm.Assignments {
		w, c := warm.Assignments[i], cold.Assignments[i]
		if w.JobID != c.JobID || w.Resource != c.Resource || w.Plan.String() != c.Plan.String() {
			t.Fatalf("assignment %d differs:\nwarm %s on %s: %s\ncold %s on %s: %s",
				i, w.JobID, w.Resource, w.Plan, c.JobID, c.Resource, c.Plan)
		}
	}
	if warm.Makespan != cold.Makespan {
		t.Fatalf("makespan differs: warm %v cold %v", warm.Makespan, cold.Makespan)
	}
}
