package serve

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scheduler"
)

// bareServer builds a Server through New's construction path but with
// no executor workers, so submitted jobs stay queued and the
// queue/executor mechanics can be driven deterministically by hand.
func bareServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.baseCancel)
	return s
}

func queueOnlyServer(t *testing.T, queueCap int) *Server {
	t.Helper()
	cfg := testConfig("")
	cfg.QueueCapacity = queueCap
	return bareServer(t, cfg)
}

func mustSubmit(t *testing.T, s *Server, spec JobSpec) JobView {
	t.Helper()
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestQueueOrdering checks the dequeue order: priority first, then
// tighter deadline (none = latest), then submission sequence.
func TestQueueOrdering(t *testing.T) {
	s := queueOnlyServer(t, 16)
	base := JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8}

	lowLate := base
	a := mustSubmit(t, s, lowLate) // prio 0, no deadline

	hiLate := base
	hiLate.Priority = 1
	b := mustSubmit(t, s, hiLate) // prio 1, no deadline

	lowSoon := base
	lowSoon.DeadlineSeconds = 3600
	c := mustSubmit(t, s, lowSoon) // prio 0, deadline

	hiSoon := base
	hiSoon.Priority = 1
	hiSoon.DeadlineSeconds = 60
	d := mustSubmit(t, s, hiSoon) // prio 1, tight deadline

	want := []string{d.ID, b.ID, c.ID, a.ID}
	for i, id := range want {
		j, res := s.nextJob(0)
		if j == nil || j.id != id {
			t.Fatalf("pop %d: got %v, want %s", i, j, id)
		}
		if j.state != StatePlanning {
			t.Fatalf("pop %d: state %s", i, j.state)
		}
		s.releasePool(res) // hand the single pool back for the next pop
	}
}

func TestQueueFull(t *testing.T) {
	s := queueOnlyServer(t, 2)
	spec := JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8}
	mustSubmit(t, s, spec)
	mustSubmit(t, s, spec)
	if _, err := s.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if m := s.Metrics(); m.Rejected != 1 || m.QueueDepth != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestCancelQueued cancels a queued job and checks the queue skips it.
func TestCancelQueued(t *testing.T) {
	s := queueOnlyServer(t, 16)
	spec := JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8}
	v1 := mustSubmit(t, s, spec)
	v2 := mustSubmit(t, s, spec)

	got, err := s.Cancel(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || got.FinishedAt == nil {
		t.Fatalf("canceled view = %+v", got)
	}
	// Canceling a finished job is a no-op.
	if again, err := s.Cancel(v1.ID); err != nil || again.State != StateCanceled {
		t.Fatalf("re-cancel: %+v, %v", again, err)
	}
	if _, err := s.Cancel("job-404"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("got %v, want ErrUnknownJob", err)
	}

	if j, _ := s.nextJob(0); j == nil || j.id != v2.ID {
		t.Fatalf("queue should skip the canceled job, popped %v", j)
	}
	if m := s.Metrics(); m.Canceled != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestDeadlineExpiredBeforeRun: a job whose deadline lapses while queued
// fails at execution time instead of running stale.
func TestDeadlineExpiredBeforeRun(t *testing.T) {
	s := queueOnlyServer(t, 16)
	spec := JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8, DeadlineSeconds: 0.001}
	v := mustSubmit(t, s, spec)
	time.Sleep(5 * time.Millisecond)

	j, res := s.nextJob(0)
	if j == nil || j.id != v.ID {
		t.Fatalf("popped %v", j)
	}
	s.execute(j, res)
	got, err := s.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || got.Error == "" {
		t.Fatalf("expired job should fail, got %+v", got)
	}
}

// TestInfeasiblePairingRetriesElsewhere: admission guarantees a job
// fits *some* pool; if the wrong pool's worker grabs it first, the
// infeasible pairing requeues the job instead of failing it, and the
// fitting pool completes it.
func TestInfeasiblePairingRetriesElsewhere(t *testing.T) {
	cfg := testConfig("")
	cfg.Resources = []scheduler.Resource{
		{Name: "small", Cluster: cluster.MustPreset(1), Availability: 1},
		{Name: "big", Cluster: cluster.MustPreset(9), Availability: 1},
	}
	s := bareServer(t, cfg)
	v := mustSubmit(t, s, JobSpec{Model: "llama3.3-70b", Batch: 32, Requests: 32})

	// The small pool (offset 0) grabs the job first and cannot plan it.
	j, res := s.nextJob(0)
	if j == nil || j.id != v.ID || res.Name != "small" {
		t.Fatalf("popped %v on %v", j, res)
	}
	s.execute(j, res)
	s.releasePool(res)
	got, err := s.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateQueued {
		t.Fatalf("job should be requeued after an infeasible pairing, got %s (%s)", got.State, got.Error)
	}

	// The next pick skips the tried pool and serves it on the big one.
	j, res = s.nextJob(0)
	if j == nil || j.id != v.ID || res.Name != "big" {
		t.Fatalf("popped %v on %v", j, res)
	}
	s.execute(j, res)
	got, err = s.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCompleted || got.Resource != "big" {
		t.Fatalf("job should complete on the fitting pool, got %+v", got)
	}
	if m := s.Metrics(); m.Failed != 0 || m.Completed != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestShutdownCancelsQueued: Shutdown cancels still-queued jobs and
// unblocks workers.
func TestShutdownCancelsQueued(t *testing.T) {
	s := queueOnlyServer(t, 16)
	v := mustSubmit(t, s, JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := s.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("queued job after shutdown: %+v", got)
	}
	if _, err := s.Submit(JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8}); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	if j, _ := s.nextJob(0); j != nil {
		t.Fatal("nextJob should return nil after shutdown")
	}
}

// TestPoolUtilization pins offline-pool utilization on a fixed clock:
// a claimed pool's in-flight time counts, released claims accumulate,
// and Metrics' capacity advice, the serve_pool_busy_ratio gauge and the
// maintenance gate's default Utilization hook report the same fraction.
func TestPoolUtilization(t *testing.T) {
	s := queueOnlyServer(t, 16)
	t0 := time.Unix(1_000_000, 0)
	clock := t0
	s.now = func() time.Time { return clock }
	s.started = t0
	spec := JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8}
	mustSubmit(t, s, spec)
	mustSubmit(t, s, spec)

	util := s.maintenanceHooks().Utilization
	gauge := s.tel.reg.GaugeVec("serve_pool_busy_ratio", "", "pool").With("pool1")
	at := func(sec float64, want float64) {
		t.Helper()
		clock = t0.Add(time.Duration(sec * float64(time.Second)))
		m := s.Metrics()
		if len(m.Capacity) != 1 || m.Capacity[0].Pool != "pool1" {
			t.Fatalf("t=%gs: capacity rows %+v, want one pool1 row", sec, m.Capacity)
		}
		if err := s.tel.reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{
			"metrics": m.Capacity[0].Utilization,
			"gauge":   gauge.Value(),
			"hook":    util("pool1"),
		}
		for src, g := range got {
			if g != want {
				t.Fatalf("t=%gs: %s utilization %v, want %v", sec, src, g, want)
			}
		}
	}

	at(10, 0)
	_, res := s.nextJob(0) // claimed at t=10
	at(20, 10.0/20)        // in-flight time counts
	s.releasePool(res)     // released at t=20
	at(40, 10.0/40)        // released time accumulates while idle
	_, res = s.nextJob(0)  // claimed again at t=40
	at(50, 20.0/50)        // released plus in-flight
	s.releasePool(res)
	at(50, 20.0/50)
}
