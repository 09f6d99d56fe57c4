package scheduler

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestJobFitsNoResource: a model too large for every pool lands in
// Unplaceable while feasible jobs are still scheduled.
func TestJobFitsNoResource(t *testing.T) {
	jobs := []Job{
		{ID: "giant", Model: "llama3.3-70b", Batch: fixedBatch(32), Requests: 64},
		{ID: "small", Model: "opt-13b", Batch: fixedBatch(16), Requests: 64},
	}
	resources := []Resource{
		{Name: "tiny", Cluster: cluster.MustPreset(1), Availability: 1},
	}
	sched, err := Build(context.Background(), jobs, resources, fastPlanner())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Unplaceable) != 1 || sched.Unplaceable[0] != "giant" {
		t.Fatalf("unplaceable = %v", sched.Unplaceable)
	}
	if len(sched.Assignments) != 1 || sched.Assignments[0].JobID != "small" {
		t.Fatalf("assignments = %+v", sched.Assignments)
	}
}

// TestZeroAvailabilityRejected: availability must be in (0, 1]; zero
// (and negative, > 1 and NaN) resources fail validation before any
// planning.
func TestZeroAvailabilityRejected(t *testing.T) {
	job := []Job{{ID: "j", Model: "opt-13b", Batch: fixedBatch(16), Requests: 64}}
	for _, avail := range []float64{0, -0.5, 1.5, math.NaN()} {
		r := Resource{Name: "idle", Cluster: cluster.MustPreset(5), Availability: avail}
		if err := r.Validate(); err == nil {
			t.Errorf("availability %v should fail Validate", avail)
		}
		_, err := Build(context.Background(), job, []Resource{r}, fastPlanner())
		if err == nil || !strings.Contains(err.Error(), "availability") {
			t.Errorf("availability %v: Build err = %v", avail, err)
		}
	}
}

// TestBuildCanceledContext: a context canceled before (or during)
// planning must surface as ctx.Err(), not as an empty schedule with
// every job silently marked unplaceable.
func TestBuildCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{{ID: "j", Model: "opt-13b", Batch: fixedBatch(16), Requests: 64}}
	sched, err := Build(ctx, jobs, testResources(), fastPlanner())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want context.Canceled", sched, err)
	}
}
