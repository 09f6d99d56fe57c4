package serve

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/maintenance"
	"repro/internal/scheduler"
)

// TestMaintenanceHTTPE2E drives the /v1/maintenance surface end to end:
// 404 before any operation, 422 for an infeasible drain (refused before
// any device is touched), a successful two-domain roll over the pool
// with full re-admission, 409 while an operation is active, and a
// DELETE abort that rolls the in-flight domain back.
func TestMaintenanceHTTPE2E(t *testing.T) {
	var blockRestart atomic.Bool
	cfg := Config{
		Resources: []scheduler.Resource{
			{Name: "pool9", Cluster: cluster.MustPreset(9), Availability: 1},
		},
		StateDir:      t.TempDir(),
		CacheCapacity: 16,
		Planner:       core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
		Maintenance: maintenance.Hooks{
			Restart: func(ctx context.Context, _ maintenance.Target) error {
				if blockRestart.Load() {
					<-ctx.Done()
					return ctx.Err()
				}
				return nil
			},
		},
	}
	srv, c := startServer(t, cfg)
	defer shutdown(t, srv)

	// No operation yet: 404.
	_, err := c.Maintenance()
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("status before any op: got %v, want http 404", err)
	}

	// Draining the whole pool leaves zero capacity: 422, fleet untouched.
	_, err = c.StartMaintenance(maintenance.Request{
		Targets: []maintenance.Target{{Pool: "pool9", Class: string(gpu.V100), Count: 4}},
	})
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible drain: got %v, want http 422", err)
	}
	if srv.Fleet().Preemptions() != 0 {
		t.Fatal("infeasible drain touched the fleet")
	}

	// The real roll: two failure domains of two devices each.
	roll := maintenance.Request{
		Targets: []maintenance.Target{
			{Pool: "pool9", Class: string(gpu.V100), Count: 2, Domain: "rack-a"},
			{Pool: "pool9", Class: string(gpu.V100), Count: 2, Domain: "rack-b"},
		},
		StepTimeoutSeconds: 10,
		RetryBaseSeconds:   0.001,
	}
	st, err := c.StartMaintenance(roll)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("operation has no ID")
	}
	st = finishMaintenance(t, srv, c)
	if st.Rollback != 0 || st.Drained != 0 {
		t.Fatalf("clean roll left rollbacks=%d drained=%d", st.Rollback, st.Drained)
	}
	if len(st.Domains) != 2 || st.Domains[0].State != maintenance.StateDone || st.Domains[1].State != maintenance.StateDone {
		t.Fatalf("domains not done: %+v", st.Domains)
	}
	pools, err := c.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 1 || pools[0].Devices != 4 || len(pools[0].Preempted) != 0 {
		t.Fatalf("pool not fully re-admitted after roll: %+v", pools)
	}

	// Active-op conflict and abort: wedge the restart step, start a new
	// roll, prove a second submit conflicts, then abort over HTTP.
	blockRestart.Store(true)
	wedged := roll
	wedged.MaxAttempts = 1
	if _, err := c.StartMaintenance(wedged); err != nil {
		t.Fatal(err)
	}
	_, err = c.StartMaintenance(roll)
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("second submit during active op: got %v, want http 409", err)
	}
	st, err = c.AbortMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != maintenance.StateAborted && st.State != maintenance.StateFailed {
		t.Fatalf("abort left state %s", st.State)
	}
	if st.Drained != 0 {
		t.Fatalf("abort left %d devices drained", st.Drained)
	}
	pools, err = c.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if pools[0].Devices != 4 {
		t.Fatalf("abort did not restore the pool: %+v", pools[0])
	}

	// After the abort wound down, a fresh operation is accepted again.
	blockRestart.Store(false)
	if _, err := c.StartMaintenance(roll); err != nil {
		t.Fatalf("post-abort submit: %v", err)
	}
	finishMaintenance(t, srv, c)
}

// finishMaintenance waits for the server's current operation to end and
// returns its final status, read over HTTP; it must have succeeded.
func finishMaintenance(t *testing.T, srv *Server, c *Client) maintenance.Status {
	t.Helper()
	srv.maintMu.Lock()
	o := srv.maint
	srv.maintMu.Unlock()
	<-o.Done()
	st, err := c.Maintenance()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != maintenance.StateDone {
		t.Fatalf("maintenance ended %s: %s", st.State, st.Error)
	}
	return st
}

// TestDrainTimeoutRequeuesWedgedJob is the regression test for the
// shutdown-hang bug: a batch wedged inside a BatchHook used to make
// Server.Shutdown wait forever. With DrainTimeout set, Shutdown must
// return once the server clock reaches the deadline, with the job
// checkpointed back to the queue — batches already done stay done, and
// the job view records the requeue.
func TestDrainTimeoutRequeuesWedgedJob(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // let the wedged worker unwind
	wedged := make(chan struct{})

	cfg := testConfig(t.TempDir())
	cfg.DrainTimeout = 200 * time.Millisecond
	cfg.BatchHook = func(jobID string, done, total int) {
		if done == 1 {
			close(wedged)
			<-release // wedge: never returns until the test ends
		}
	}
	srv := bareServer(t, cfg)
	f := srv.clk.(*clock.Fake)
	srv.workers.Add(1)
	go srv.worker()

	v := mustSubmit(t, srv, JobSpec{Model: "opt-1.3b", Batch: 16, Requests: 96}) // 6 batches
	<-wedged

	// Shutdown with an unbounded context: before the fix this blocked
	// forever on workers.Wait; now the drain timeout checkpoints and
	// requeues the wedged job, and Shutdown returns when it fires.
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	f.BlockUntil(1)
	f.Advance(cfg.DrainTimeout - 1)
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned before the drain timeout: %v", err)
	default:
	}
	f.Advance(1)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	jv, err := srv.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jv.State != StateQueued || !jv.Requeued {
		t.Fatalf("wedged job not requeued: state=%s requeued=%v", jv.State, jv.Requeued)
	}
	if jv.BatchesDone != 1 {
		t.Fatalf("checkpoint lost: batches_done=%d, want 1", jv.BatchesDone)
	}
	if jv.Error != "" {
		t.Fatalf("requeued job carries an error: %q", jv.Error)
	}
}
