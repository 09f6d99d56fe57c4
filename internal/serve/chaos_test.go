package serve

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/scheduler"
)

// TestChaosPreemptionReplanE2E is the acceptance scenario for
// preemption-aware serving: a seeded preemption lands mid-job exactly on
// a batch boundary (via BatchHook), the pool shrinks from 4 to 2 V100s,
// and the job must complete on the degraded cluster with the re-plan
// recorded — and the plan cache must hold entries under both the intact
// and the degraded cluster fingerprints.
func TestChaosPreemptionReplanE2E(t *testing.T) {
	cfg := Config{
		Resources: []scheduler.Resource{
			{Name: "pool9", Cluster: cluster.MustPreset(9), Availability: 1},
		},
		StateDir:      t.TempDir(),
		CacheCapacity: 16,
		Planner:       core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
	}
	var once sync.Once
	var srv *Server
	cfg.BatchHook = func(jobID string, done, total int) {
		if done == 2 {
			once.Do(func() {
				if _, err := srv.Fleet().Preempt("pool9", gpu.V100, 2); err != nil {
					t.Errorf("preempt: %v", err)
				}
			})
		}
	}
	srv, c := startServer(t, cfg)
	defer shutdown(t, srv)

	v, err := c.Submit(JobSpec{Model: "opt-1.3b", Batch: 16, Requests: 96}) // 6 batches
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err = c.Wait(ctx, v.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCompleted {
		t.Fatalf("job on degraded pool: %s (%s)", v.State, v.Error)
	}
	if v.BatchesDone != 6 || v.BatchesTotal != 6 {
		t.Fatalf("batches %d/%d", v.BatchesDone, v.BatchesTotal)
	}
	if v.Preemptions < 1 || v.Replans < 1 {
		t.Fatalf("job should record the preemption and re-plan, got preemptions=%d replans=%d", v.Preemptions, v.Replans)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Preemptions != 1 || m.Replans < 1 {
		t.Fatalf("metrics should surface preemptions/replans, got %+v", m)
	}

	// The cache holds the intact-cluster plan and the degraded-cluster
	// plan under distinct fingerprints.
	fullFP := cluster.MustPreset(9).Fingerprint()
	degCluster, err := cluster.MustPreset(9).Shrink(gpu.V100, 2)
	if err != nil {
		t.Fatal(err)
	}
	degFP := degCluster.Fingerprint()
	if fullFP == degFP {
		t.Fatal("fingerprints must differ")
	}
	var haveFull, haveDeg bool
	for _, key := range srv.cache.Keys() {
		if strings.Contains(key, fullFP) {
			haveFull = true
		}
		if strings.Contains(key, degFP) {
			haveDeg = true
		}
	}
	if !haveFull || !haveDeg {
		t.Fatalf("cache should hold plans for both fingerprints (full=%v degraded=%v): %v",
			haveFull, haveDeg, srv.cache.Keys())
	}

	// The fleet view over HTTP reflects the outage, and a restore heals it.
	pools, err := c.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 1 || pools[0].Devices != 2 || pools[0].TotalDevices != 4 ||
		pools[0].Generation != 1 || pools[0].Preempted[string(gpu.V100)] != 2 {
		t.Fatalf("fleet view = %+v", pools)
	}
	pv, err := c.Restore("pool9", string(gpu.V100), 2)
	if err != nil {
		t.Fatal(err)
	}
	if pv.Devices != 4 || pv.Generation != 2 || len(pv.Preempted) != 0 {
		t.Fatalf("restored view = %+v", pv)
	}
	// Bad fleet requests surface as 400s.
	_, err = c.Preempt("pool9", string(gpu.V100), 99)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("over-reclaim: got %v, want http 400", err)
	}
}

// TestFullPreemptionMigratesJob: when the whole pool is reclaimed
// mid-job, the executor abandons it (the shrunken pool is infeasible,
// not just degraded) and the job resumes from its batch checkpoint on
// another pool.
func TestFullPreemptionMigratesJob(t *testing.T) {
	cfg := Config{
		Resources: []scheduler.Resource{
			{Name: "pool9", Cluster: cluster.MustPreset(9), Availability: 1}, // 4×V100
			{Name: "pool8", Cluster: cluster.MustPreset(8), Availability: 1}, // 4×T4
		},
		Workers: 1, // deterministic: the single worker starts on pool9
		Planner: core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
	}
	var once sync.Once
	var srv *Server
	cfg.BatchHook = func(jobID string, done, total int) {
		if done == 2 {
			once.Do(func() {
				if _, err := srv.Fleet().Preempt("pool9", gpu.V100, 4); err != nil {
					t.Errorf("preempt: %v", err)
				}
			})
		}
	}
	srv, c := startServer(t, cfg)
	defer shutdown(t, srv)

	v, err := c.Submit(JobSpec{Model: "opt-1.3b", Batch: 16, Requests: 96})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err = c.Wait(ctx, v.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCompleted || v.Resource != "pool8" {
		t.Fatalf("job should migrate to pool8, got %s on %q (%s)", v.State, v.Resource, v.Error)
	}
	if v.BatchesDone != 6 || v.Preemptions < 1 {
		t.Fatalf("checkpointed progress lost: %+v", v)
	}
}

// TestWorkersFewerThanPools is the regression for the stranded-job bug:
// with Workers=1 over two pools, the old executor pinned the only worker
// to pool 0, so a job requeued by retryElsewhere for the other pool
// stayed queued forever. Workers now rotate over all pools.
func TestWorkersFewerThanPools(t *testing.T) {
	cfg := Config{
		Resources: []scheduler.Resource{
			{Name: "small", Cluster: cluster.MustPreset(1), Availability: 1},
			{Name: "big", Cluster: cluster.MustPreset(9), Availability: 1},
		},
		Workers: 1,
		Planner: core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
	}
	srv, c := startServer(t, cfg)
	defer shutdown(t, srv)

	// Fits only the big pool: the worker tries small first (offset 0),
	// requeues, and must then serve it on big — the old code hung here.
	v, err := c.Submit(JobSpec{Model: "llama3.3-70b", Batch: 32, Requests: 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	v, err = c.Wait(ctx, v.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCompleted || v.Resource != "big" {
		t.Fatalf("job stranded: %s on %q (%s)", v.State, v.Resource, v.Error)
	}
}

// TestRejectedCountsEveryPath is the regression for the undercounted
// Metrics.Rejected: spec-validation failures must count, not just
// admission and queue rejections.
func TestRejectedCountsEveryPath(t *testing.T) {
	srv, err := New(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv)
	bad := []JobSpec{
		{Model: "no-such-model", Batch: 8, Requests: 8},
		{Model: "opt-1.3b", Batch: 0, Requests: 8},
		{Model: "opt-1.3b", Batch: 8, Requests: 0},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, DeadlineSeconds: -1},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, Theta: -1},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, Method: "gradient-descent"},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, Workload: "mystery"},
		{Model: "llama3.3-70b", Batch: 32, Requests: 32}, // admission (memory bound)
	}
	for _, spec := range bad {
		if _, err := srv.Submit(spec); err == nil {
			t.Fatalf("spec %+v should be rejected", spec)
		}
	}
	if m := srv.Metrics(); m.Rejected != len(bad) {
		t.Fatalf("Rejected = %d, want %d (every rejection path must count)", m.Rejected, len(bad))
	}
}

// TestRetryDuringShutdownCancels is the regression for the
// failed-vs-canceled confusion: a job that was merely infeasible on
// *this* pool while the server drains is canceled by the shutdown, not
// failed with a capacity error.
func TestRetryDuringShutdownCancels(t *testing.T) {
	cfg := testConfig("")
	cfg.Resources = []scheduler.Resource{
		{Name: "small", Cluster: cluster.MustPreset(1), Availability: 1},
		{Name: "big", Cluster: cluster.MustPreset(9), Availability: 1},
	}
	s := bareServer(t, cfg)
	v := mustSubmit(t, s, JobSpec{Model: "llama3.3-70b", Batch: 32, Requests: 32})

	j, res := s.nextJob(0)
	if j == nil || res.Name != "small" {
		t.Fatalf("popped %v on %v", j, res)
	}
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	s.execute(j, res) // infeasible on small; retry abandoned by the drain

	got, err := s.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || !strings.Contains(got.Error, "shutdown") {
		t.Fatalf("drain-abandoned retry should cancel, got %s (%s)", got.State, got.Error)
	}
	if m := s.Metrics(); m.Failed != 0 || m.Canceled != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestCancelDuringPlanningWindow drives the exact interleaving where
// Cancel lands after nextJob set StatePlanning but before execute
// installed j.cancel: the cancel request must stick and the job must
// never run.
func TestCancelDuringPlanningWindow(t *testing.T) {
	s := queueOnlyServer(t, 16)
	v := mustSubmit(t, s, JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8})
	j, res := s.nextJob(0)
	if j == nil || j.state != StatePlanning {
		t.Fatalf("popped %v", j)
	}
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	s.execute(j, res)
	got, err := s.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || got.BatchesDone != 0 {
		t.Fatalf("job should cancel before running a batch, got %+v", got)
	}
}

// TestRaceCancelDuringPlanning hammers submit/cancel against live
// workers; meaningful under -race. Every job must reach a terminal
// state — none may hang planning with a lost cancel.
func TestRaceCancelDuringPlanning(t *testing.T) {
	srv, err := New(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv)
	const n = 24
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v, err := srv.Submit(JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		go srv.Cancel(v.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			v, err := srv.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if v.State.terminal() {
				if v.State == StateFailed {
					t.Fatalf("job %s failed: %s", id, v.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, v.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestRaceConcurrentShutdown: concurrent Shutdown callers must all
// succeed and persist the plan cache exactly once (the old code raced
// two Saves over the same temp file and could surface a spurious
// rename error).
func TestRaceConcurrentShutdown(t *testing.T) {
	state := t.TempDir()
	srv, c := startServer(t, testConfig(state))
	v, err := c.Submit(JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, v.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = srv.Shutdown(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shutdown %d: %v", i, err)
		}
	}
	if _, err := os.Stat(filepath.Join(state, cacheFileName)); err != nil {
		t.Fatalf("plan cache not persisted: %v", err)
	}
	// No orphaned temp files from racing persists.
	matches, err := filepath.Glob(filepath.Join(state, cacheFileName+".tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("orphaned temp files: %v", matches)
	}
}

// TestNoLostWakeupUnderMixedFeasibility floods a two-pool server with
// jobs that bounce between pools; with the old Signal-based wakeup a
// woken worker could swallow the only signal and strand a runnable job.
func TestNoLostWakeupUnderMixedFeasibility(t *testing.T) {
	cfg := Config{
		Resources: []scheduler.Resource{
			{Name: "small", Cluster: cluster.MustPreset(1), Availability: 1},
			{Name: "big", Cluster: cluster.MustPreset(9), Availability: 1},
		},
		Planner: core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv)

	var ids []string
	for i := 0; i < 8; i++ {
		spec := JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 16}
		if i%4 == 0 {
			spec = JobSpec{Model: "llama3.3-70b", Batch: 32, Requests: 32} // big-pool only
		}
		v, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		for {
			v, err := srv.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if v.State == StateCompleted {
				break
			}
			if v.State.terminal() {
				t.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stranded in %s (lost wakeup?)", id, v.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestRestoreReplansFreshGeneration runs the full cycle end to end: a
// job survives a preemption (gen 1) and a restore (gen 2) at batch
// boundaries. The plan-cache key carries the cluster fingerprint, not
// the pool generation, so the post-restore replan is a cache hit that
// returns the pre-preemption plan: the plan a fresh solve on the intact
// pool gives.
func TestRestoreReplansFreshGeneration(t *testing.T) {
	cfg := Config{
		Resources: []scheduler.Resource{
			{Name: "pool9", Cluster: cluster.MustPreset(9), Availability: 1}, // 4×V100
		},
		CacheCapacity: 16,
		Planner:       core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
	}
	var preemptOnce, restoreOnce sync.Once
	var srv *Server
	cfg.BatchHook = func(jobID string, done, total int) {
		switch done {
		case 2:
			preemptOnce.Do(func() {
				if _, err := srv.Fleet().Preempt("pool9", gpu.V100, 2); err != nil {
					t.Errorf("preempt: %v", err)
				}
			})
		case 4:
			restoreOnce.Do(func() {
				if _, err := srv.Fleet().Restore("pool9", gpu.V100, 2); err != nil {
					t.Errorf("restore: %v", err)
				}
			})
		}
	}
	srv, c := startServer(t, cfg)
	defer shutdown(t, srv)

	v, err := c.Submit(JobSpec{Model: "opt-1.3b", Batch: 16, Requests: 128}) // 8 batches
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	v, err = c.Wait(ctx, v.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCompleted || v.BatchesDone != 8 {
		t.Fatalf("job = %+v", v)
	}
	if v.Replans < 2 {
		t.Fatalf("preempt + restore should each force a replan, got %d", v.Replans)
	}

	if !v.CacheHit {
		t.Fatal("the post-restore replan was not answered from the plan cache")
	}
	m := srv.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 2 || m.CacheEntries != 2 {
		t.Fatalf("plan cache: %d hits, %d misses, %d entries; want the intact and degraded solves and one hit",
			m.CacheHits, m.CacheMisses, m.CacheEntries)
	}
	mspec, err := model.Lookup("opt-1.3b")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := buildBatch(JobSpec{Model: "opt-1.3b", Batch: 16, Requests: 128}, mspec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.New(mspec, cluster.MustPreset(9), core.ProfileIndicator(mspec, core.CandidateBits, quant.Deterministic), srv.cfg.Planner)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := a.Plan(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if v.Plan != want.String() {
		t.Fatalf("post-restore plan %s, want the pre-preemption plan %s", v.Plan, want)
	}
}
