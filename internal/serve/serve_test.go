package serve

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scheduler"
)

// testConfig returns a single-pool config (cluster 1: one V100-32G) with
// a fast planner. The pool is deliberately small so an oversized model
// is rejected at admission.
func testConfig(stateDir string) Config {
	return Config{
		Resources: []scheduler.Resource{
			{Name: "pool1", Cluster: cluster.MustPreset(1), Availability: 0.5},
		},
		StateDir:      stateDir,
		CacheCapacity: 16,
		Planner:       core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
	}
}

func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, NewClient(addr)
}

func shutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndDaemon is the acceptance scenario: three jobs over HTTP
// (one infeasible, rejected at admission), completion observed via the
// status endpoint, a drain that persists the plan cache, and a restarted
// server serving a repeat job from the cache (hit visible in /metrics).
func TestEndToEndDaemon(t *testing.T) {
	state := t.TempDir()
	srv, c := startServer(t, testConfig(state))

	repeat := JobSpec{Model: "opt-1.3b", Batch: 16, Requests: 64}
	j1, err := c.Submit(repeat)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 24, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The 70B model cannot fit the 32 GiB pool at any bitwidth: the
	// admission controller's memory lower bound must reject it at submit
	// time with HTTP 422, before any planning happens.
	_, err = c.Submit(JobSpec{Model: "llama3.3-70b", Batch: 32, Requests: 32})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible job: got %v, want http 422", err)
	}
	if !strings.Contains(se.Message, "GiB") {
		t.Fatalf("rejection should explain the memory bound, got %q", se.Message)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range []string{j1.ID, j2.ID} {
		v, err := c.Wait(ctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateCompleted {
			t.Fatalf("job %s: state %s (%s)", id, v.State, v.Error)
		}
		if v.BatchesDone != v.BatchesTotal || v.BatchesTotal == 0 {
			t.Fatalf("job %s: batches %d/%d", id, v.BatchesDone, v.BatchesTotal)
		}
		if v.Resource != "pool1" || v.Plan == "" || v.Throughput <= 0 || v.SimSeconds <= 0 {
			t.Fatalf("job %s: degenerate result %+v", id, v)
		}
	}
	if v, _ := c.Job(j1.ID); v.BatchesTotal != 4 {
		t.Fatalf("64 requests at B=16 should run 4 batches, got %d", v.BatchesTotal)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != 2 || m.Rejected != 1 || m.Completed != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.CacheMisses == 0 || m.CacheEntries == 0 {
		t.Fatalf("expected plan-cache misses and entries, got %+v", m)
	}

	// Drain persists the cache (the SIGTERM path in cmd/served calls
	// exactly this Shutdown).
	shutdown(t, srv)
	if _, err := os.Stat(filepath.Join(state, cacheFileName)); err != nil {
		t.Fatalf("plan cache not persisted: %v", err)
	}

	// A restarted server must serve the repeat job from the warm cache.
	srv2, c2 := startServer(t, testConfig(state))
	defer shutdown(t, srv2)
	j3, err := c2.Submit(repeat)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c2.Wait(ctx, j3.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCompleted {
		t.Fatalf("repeat job: state %s (%s)", v.State, v.Error)
	}
	if !v.CacheHit {
		t.Fatal("repeat job on a restarted server should be a cache hit")
	}
	m2, err := c2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m2.CacheHits == 0 {
		t.Fatalf("restart metrics should count the cache hit, got %+v", m2)
	}
}

// TestPersistedCacheKeysPlannerOptions is the regression for a plan
// cache key that left planner options out: a plan persisted under one
// Config.Planner must not be served to a daemon restarted with another.
// A job planned under a MeshFilter cannot be keyed, so it is planned
// every time and never stored.
func TestPersistedCacheKeysPlannerOptions(t *testing.T) {
	state := t.TempDir()
	spec := JobSpec{Model: "opt-1.3b", Batch: 16, Requests: 32}
	// run starts a server on state, runs spec to completion, and shuts
	// the server down (which persists the cache).
	run := func(cfg Config) (JobView, Metrics) {
		t.Helper()
		srv, c := startServer(t, cfg)
		defer shutdown(t, srv)
		v, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if v, err = c.Wait(ctx, v.ID, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if v.State != StateCompleted {
			t.Fatalf("job: state %s (%s)", v.State, v.Error)
		}
		return v, srv.Metrics()
	}

	if v, _ := run(testConfig(state)); v.CacheHit {
		t.Fatal("first job on an empty state dir hit the cache")
	}
	if v, _ := run(testConfig(state)); !v.CacheHit {
		t.Fatal("unchanged planner options should hit the persisted plan")
	}
	for name, change := range map[string]func(*core.Options){
		"OrderingLimit": func(o *core.Options) { o.OrderingLimit = 3 },
		"QualityCap":    func(o *core.Options) { o.QualityCap = 1000 },
	} {
		cfg := testConfig(state)
		change(&cfg.Planner)
		if v, _ := run(cfg); v.CacheHit {
			t.Fatalf("a plan persisted under another %s was served from the cache", name)
		}
	}

	cfg := testConfig(state)
	cfg.Planner.MeshFilter = func([]cluster.Device) bool { return true }
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := srv.Metrics().CacheEntries
	shutdown(t, srv)
	for i := 0; i < 2; i++ {
		v, m := run(cfg)
		if v.CacheHit || m.CacheEntries != entries {
			t.Fatalf("MeshFilter run %d: cache hit %v, entries %d → %d (want a miss, nothing stored)",
				i, v.CacheHit, entries, m.CacheEntries)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	srv, c := startServer(t, testConfig(""))
	defer shutdown(t, srv)
	cases := []JobSpec{
		{Model: "no-such-model", Batch: 8, Requests: 8},
		{Model: "opt-1.3b", Batch: 0, Requests: 8},
		{Model: "opt-1.3b", Batch: 8, Requests: 0},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, Method: "gradient-descent"},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, Workload: "mystery"},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, DeadlineSeconds: -1},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, Theta: -1},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, DeadlineSeconds: 1e10},
	}
	for _, spec := range cases {
		_, err := c.Submit(spec)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
			t.Errorf("spec %+v: got %v, want http 422", spec, err)
		}
	}
	if _, err := c.Job("job-999999"); err == nil {
		t.Error("unknown job lookup should fail")
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	srv, c := startServer(t, testConfig(""))
	defer shutdown(t, srv)
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: got %v, want http 503", err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Draining {
		t.Fatal("metrics should report draining")
	}
}

func TestJobListOverHTTP(t *testing.T) {
	srv, c := startServer(t, testConfig(""))
	defer shutdown(t, srv)
	ids := []string{}
	for i := 0; i < 3; i++ {
		v, err := c.Submit(JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	jobs, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("list returned %d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != ids[i] {
			t.Fatalf("list order drifted: %v vs %v", jobs, ids)
		}
	}
}
