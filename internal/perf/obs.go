package perf

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// ObsOverheadCeiling is the tracked bound on telemetry cost: the traced
// arm of the ObsOverhead scenario may run at most this fraction slower
// than the untraced arm. cmd/benchjson gates BENCH_obs.json against it.
const ObsOverheadCeiling = 0.05

// obsJobs and obsRounds fix the ObsOverhead scenario (see its entry in
// Snapshots).
const (
	obsJobs   = 30
	obsRounds = 3
)

// ObsResult is one telemetry-overhead measurement: the warm-cache serve
// throughput with the metrics registry alone (always on — the serve
// counters are registry atomics) versus the same run with an active
// span tracer capturing every queue-wait, plan, and batch event.
type ObsResult struct {
	Jobs   int `json:"jobs"`
	Rounds int `json:"rounds"`
	// BaseJobsPerSec and TracedJobsPerSec are each arm's best round —
	// best-of-N discards scheduler noise, which on a millisecond-scale
	// warm path would otherwise dwarf the effect being measured.
	BaseJobsPerSec   float64 `json:"base_jobs_per_sec"`
	TracedJobsPerSec float64 `json:"traced_jobs_per_sec"`
	// Spans is the event count the traced arm's final round captured
	// (sanity: tracing was actually on).
	Spans int `json:"spans"`
	// Overhead is BaseJobsPerSec/TracedJobsPerSec − 1 — the tracked,
	// machine-normalized quantity. Negative means noise, not a speedup.
	Overhead float64 `json:"overhead"`
}

// ObsOverhead measures what the telemetry layer costs the serve hot
// path. Both arms run serveJobs (submit → cache-hit plan → simulate →
// complete); the traced arm additionally records every span into an
// in-memory tracer. Arms alternate within each round so cache warmup
// and CPU frequency drift hit both equally.
func ObsOverhead(ctx context.Context, jobs int) (*ObsResult, error) {
	if jobs <= 0 {
		jobs = obsJobs
	}
	res := &ObsResult{Jobs: jobs, Rounds: obsRounds}
	for r := 0; r < obsRounds; r++ {
		base, err := serveJobs(ctx, jobs, nil)
		if err != nil {
			return nil, err
		}
		tr := obs.NewTracer()
		traced, err := serveJobs(ctx, jobs, tr)
		if err != nil {
			return nil, err
		}
		n := len(tr.Events())
		if n < jobs {
			return nil, fmt.Errorf("perf: traced arm captured only %d spans for %d jobs — tracing was not on the hot path", n, jobs)
		}
		res.Spans = n
		if base > res.BaseJobsPerSec {
			res.BaseJobsPerSec = base
		}
		if traced > res.TracedJobsPerSec {
			res.TracedJobsPerSec = traced
		}
	}
	if res.TracedJobsPerSec > 0 {
		res.Overhead = res.BaseJobsPerSec/res.TracedJobsPerSec - 1
	}
	return res, nil
}

// serveJobs submits identical jobs one at a time to a fresh single-pool
// server on preset 9, optionally traced, and returns the jobs/sec of
// that loop. One untimed job primes the plan cache first, so every
// timed job must be a cache hit.
func serveJobs(ctx context.Context, jobs int, tr *obs.Tracer) (float64, error) {
	srv, err := serve.New(serve.Config{
		Resources: []scheduler.Resource{
			{Name: "pool9", Cluster: cluster.MustPreset(9), Availability: 1},
		},
		CacheCapacity: jobs + 2,
		QueueCapacity: jobs + 2,
		Planner:       core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
		Tracer:        tr,
	})
	if err != nil {
		return 0, err
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(shCtx)
	}()
	spec := serve.JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8}
	// run submits one job and polls it to completion.
	run := func() (serve.JobView, error) {
		v, err := srv.Submit(spec)
		if err != nil {
			return v, err
		}
		for {
			if v, err = srv.Job(v.ID); err != nil {
				return v, err
			}
			if v.State == serve.StateCompleted {
				return v, nil
			}
			if v.State == serve.StateFailed || v.State == serve.StateCanceled {
				return v, fmt.Errorf("perf: job %s: %s (%s)", v.ID, v.State, v.Error)
			}
			if err := ctx.Err(); err != nil {
				return v, err
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := run(); err != nil { // prime the cache
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < jobs; i++ {
		v, err := run()
		if err != nil {
			return 0, err
		}
		if !v.CacheHit {
			return 0, fmt.Errorf("perf: warm job %s missed the plan cache", v.ID)
		}
	}
	return float64(jobs) / time.Since(t0).Seconds(), nil
}
