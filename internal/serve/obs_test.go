package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/quant"
	"repro/internal/workload"
)

// obsOnlineEngine builds the colocated streaming engine of online_test
// with a tracer wired, returning the resolved config too (the drift
// detector solves the same station the engine runs).
func obsOnlineEngine(t *testing.T, tr *obs.Tracer) (*online.Engine, online.Config) {
	t.Helper()
	spec, err := model.Lookup("opt-1.3b")
	if err != nil {
		t.Fatal(err)
	}
	clu := cluster.MustPreset(1)
	ind := core.ProfileIndicator(spec, []int{3, 4, 8, 16}, quant.Deterministic)
	a, err := core.New(spec, clu, ind, core.Options{
		Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4, Bits: []int{3, 4, 8, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := a.Plan(context.Background(), workload.Batch{Size: 8, ChunkLen: 256, Chunks: 1, GenTokens: 16})
	if err != nil {
		t.Fatal(err)
	}
	cfg := online.Config{Spec: spec, PrefillPlan: p, PrefillCluster: clu, ChunkLen: 256, Tracer: tr}
	e, err := online.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, cfg
}

// TestObservabilityEndToEnd is the acceptance scenario for the
// telemetry layer: a daemon with the online tier, a virtual-clock
// tracer, the drift detector, and pprof enabled serves a deterministic
// burst of requests; the Chrome-traceable spans must reconstruct the
// per-request queue waits that /v1/metrics reports, and /metrics must
// expose every subsystem's families from one registry.
func TestObservabilityEndToEnd(t *testing.T) {
	var eng *online.Engine
	tr := obs.NewVirtualTracer(func() float64 {
		if eng == nil {
			return 0
		}
		return eng.Clock()
	})
	eng, ocfg := obsOnlineEngine(t, tr)
	cfg := testConfig("")
	cfg.Online = eng
	cfg.Tracer = tr
	cfg.Drift = capacity.NewDriftDetector(ocfg, "online-prefill", 0, 0)
	cfg.Pprof = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv)

	// Deterministic traffic entirely on the virtual clock: no Loop
	// goroutine, the test drives the engine to completion itself.
	const n = 32
	for i := 0; i < n; i++ {
		if _, err := eng.Submit(online.RequestSpec{
			PromptLen: 64 + 32*(i%4), MaxTokens: 4, ArrivalSeconds: float64(i) * 0.02,
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunToCompletion()

	m := srv.Metrics()
	if m.Online == nil || m.Online.Completed != n {
		t.Fatalf("online metrics missing or incomplete: %+v", m.Online)
	}
	if m.Drift == nil || m.Drift.Verdict == "" {
		t.Fatalf("drift report missing from metrics: %+v", m.Drift)
	}
	if m.Drift.Observations != m.Online.TTFT.Count {
		t.Fatalf("drift observed %d requests, engine digested %d", m.Drift.Observations, m.Online.TTFT.Count)
	}

	// Reconstruct the per-request queue waits from the trace and check
	// them against the views and the digest /v1/metrics serves. The
	// reservoir holds all 32 samples here, so the mean is exact.
	type key struct{ track, name string }
	spans := map[key]obs.Event{}
	for _, ev := range tr.Events() {
		if ev.Phase == "X" {
			spans[key{ev.Track, ev.Name}] = ev
		}
	}
	sum := 0.0
	for _, v := range eng.List() {
		if v.State != online.StateCompleted {
			t.Fatalf("request %s did not complete: %+v", v.ID, v)
		}
		sp, ok := spans[key{"req:" + v.ID, "queue-wait"}]
		if !ok {
			t.Fatalf("no queue-wait span for %s", v.ID)
		}
		if math.Abs(sp.Dur-v.QueueWait) > 1e-9 || math.Abs(sp.Start-v.ArrivalSeconds) > 1e-9 {
			t.Fatalf("queue-wait span %+v disagrees with view %+v", sp, v)
		}
		if _, ok := spans[key{"req:" + v.ID, "prefill"}]; !ok {
			t.Fatalf("no prefill span for %s", v.ID)
		}
		sum += sp.Dur
	}
	if mean := sum / n; math.Abs(mean-m.Online.QueueWait.Mean) > 1e-9 {
		t.Fatalf("trace-reconstructed mean queue wait %.9f vs metrics %.9f", mean, m.Online.QueueWait.Mean)
	}

	// An offline job of three batches records its submit and finish
	// instants, its queue-wait and plan spans, and one span per batch
	// with the job and the batch's simulated seconds.
	job, err := srv.Submit(JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 24, Prompt: 100, Output: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if job, err = NewClient(addr).Wait(ctx, job.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if job.State != StateCompleted || job.BatchesDone != 3 {
		t.Fatalf("offline job ended %s after %d batches: %s", job.State, job.BatchesDone, job.Error)
	}
	jobEvents := map[key]obs.Event{}
	for _, ev := range tr.Events() {
		if ev.Args["job"] == job.ID {
			if _, dup := jobEvents[key{ev.Track, ev.Name}]; dup {
				t.Fatalf("event %s/%s recorded twice", ev.Track, ev.Name)
			}
			jobEvents[key{ev.Track, ev.Name}] = ev
		}
	}
	want := map[key]map[string]any{
		{"serve", "submit"}:        {"job": job.ID, "model": "opt-1.3b"},
		{"pool1", "queue-wait"}:    {"job": job.ID},
		{"pool1", "plan"}:          {"job": job.ID, "cache": "cold"},
		{"serve", "job-completed"}: {"job": job.ID},
	}
	simSum := 0.0
	perBatch, _ := jobEvents[key{"pool1", "batch 1/3"}].Args["sim_seconds"].(float64)
	for b := 1; b <= 3; b++ {
		want[key{"pool1", fmt.Sprintf("batch %d/3", b)}] = map[string]any{"job": job.ID, "sim_seconds": perBatch}
		simSum += perBatch
	}
	if simSum != job.SimSeconds {
		t.Fatalf("batch spans sum to %v simulated seconds, job reports %v", simSum, job.SimSeconds)
	}
	if len(jobEvents) != len(want) {
		t.Fatalf("job recorded %d events, want %d: %v", len(jobEvents), len(want), jobEvents)
	}
	for k, args := range want {
		ev, ok := jobEvents[k]
		if !ok || !reflect.DeepEqual(ev.Args, args) {
			t.Fatalf("event %v = %+v (recorded %v), want args %v", k, ev, ok, args)
		}
	}

	// /metrics: one registry covering serve, online, fleet,
	// capacity drift, and (with Pprof) the Go runtime.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("exposition content type = %q", ct)
	}
	text := string(body)
	for _, fam := range []string{
		"serve_jobs_submitted_total",
		"serve_queue_depth",
		"online_submitted_total 32",
		`online_ttft_seconds{q="p95"}`,
		`fleet_pool_devices{pool="pool1"}`,
		`capacity_drift_verdict{pool="online-prefill"}`,
		"go_goroutines",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("/metrics missing %q:\n%s", fam, text)
		}
	}

	// pprof handlers mount behind the flag.
	pp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, pp.Body)
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index returned %d", pp.StatusCode)
	}
}

// TestPrometheusIsViewOverJSONMetrics: the /v1/metrics counters and the
// exposition read the same registry atomics, so the two can never
// disagree.
func TestPrometheusIsViewOverJSONMetrics(t *testing.T) {
	srv, c := startServer(t, testConfig(""))
	defer shutdown(t, srv)
	v, err := c.Submit(JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := c.Wait(ctx, v.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	text := scrape(t, srv)
	for _, want := range []string{
		"serve_jobs_submitted_total 1",
		`serve_jobs_finished_total{state="completed"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q (JSON view: %+v):\n%s", want, m, text)
		}
	}
	if m.Submitted != 1 || m.Completed != 1 {
		t.Fatalf("JSON view disagrees: %+v", m)
	}
}

func scrape(t *testing.T, srv *Server) string {
	t.Helper()
	var sb strings.Builder
	if err := srv.tel.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
