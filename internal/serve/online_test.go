package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/pipeline"
	"repro/internal/quant"
	"repro/internal/workload"
)

// onlineConfig plans a colocated streaming engine on cluster 1 (one
// V100) for the small model the serve tests use.
func onlineConfig(tb testing.TB) online.Config {
	tb.Helper()
	spec, err := model.Lookup("opt-1.3b")
	if err != nil {
		tb.Fatal(err)
	}
	clu := cluster.MustPreset(1)
	ind := core.ProfileIndicator(spec, []int{3, 4, 8, 16}, quant.Deterministic)
	a, err := core.New(spec, clu, ind, core.Options{
		Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4, Bits: []int{3, 4, 8, 16},
	})
	if err != nil {
		tb.Fatal(err)
	}
	p, _, err := a.Plan(context.Background(), workload.Batch{Size: 8, ChunkLen: 256, Chunks: 1, GenTokens: 16})
	if err != nil {
		tb.Fatal(err)
	}
	return online.Config{Spec: spec, PrefillPlan: p, PrefillCluster: clu, ChunkLen: 256}
}

// onlineEngine builds an engine from onlineConfig.
func onlineEngine(t *testing.T) *online.Engine {
	t.Helper()
	e, err := online.New(onlineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// FuzzRequestSpec decodes arbitrary bytes as a RequestSpec, the way the
// request submit endpoint does, and submits the spec to a fresh engine.
// Each submission is rejected, or the request fits the model's
// positions (checked without overflow), reserves a positive KV
// footprint, and its Status echoes the spec.
func FuzzRequestSpec(f *testing.F) {
	for _, seed := range []string{
		`{"prompt_len":128,"max_tokens":6}`,
		`{"id":"a","prompt_len":256,"max_tokens":4,"priority":3,"deadline_seconds":2.5,"arrival_seconds":1e5}`,
		`{"prompt_len":1,"max_tokens":9223372036854775807}`,
		`{"prompt_len":9223372036854775807,"max_tokens":9223372036854775807}`,
		`{"prompt_len":2047,"max_tokens":1}`,
		`{"prompt_len":0,"max_tokens":4}`,
		`{"prompt_len":-5,"max_tokens":-9223372036854775808}`,
		`{"prompt_len":64,"max_tokens":8,"arrival_seconds":-3,"deadline_seconds":-1}`,
		`{"prompt_len":64,"max_tokens":8,"extra":1}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	cfg := onlineConfig(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec online.RequestSpec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		e, err := online.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		id, err := e.Submit(spec)
		if err != nil {
			if !errors.Is(err, online.ErrRejected) {
				t.Fatalf("%+v: rejected with %v, want ErrRejected", spec, err)
			}
			return
		}
		maxPos := cfg.Spec.MaxPos
		if spec.PromptLen < 1 || spec.MaxTokens < 1 || spec.PromptLen > maxPos || spec.MaxTokens > maxPos-spec.PromptLen {
			t.Fatalf("accepted %+v beyond the model's %d positions", spec, maxPos)
		}
		if kv := pipeline.RequestKVBytes(cfg.PrefillPlan, cfg.Spec, spec.PromptLen, spec.MaxTokens); kv <= 0 {
			t.Fatalf("accepted %+v with KV footprint %d", spec, kv)
		}
		v, err := e.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		arrival := max(spec.ArrivalSeconds, 0)
		deadline := 0.0
		if spec.DeadlineSeconds > 0 {
			deadline = arrival + spec.DeadlineSeconds
		}
		if (spec.ID != "" && v.ID != spec.ID) || v.ID != id || v.State != online.StateQueued ||
			v.PromptLen != spec.PromptLen || v.MaxTokens != spec.MaxTokens || v.Priority != spec.Priority ||
			v.ArrivalSeconds != arrival || v.DeadlineSeconds != deadline || v.Tokens != 0 {
			t.Fatalf("status %+v does not echo %+v", v, spec)
		}
	})
}

// TestOnlineTierOverHTTP drives the streaming request tier end to end
// through the daemon: submit, NDJSON stream to completion, status,
// cancel, error codes, and the online section of /v1/metrics.
func TestOnlineTierOverHTTP(t *testing.T) {
	eng := onlineEngine(t)
	cfg := testConfig("")
	cfg.Online = eng
	srv, c := startServer(t, cfg)
	defer shutdown(t, srv)
	loopCtx, stopLoop := context.WithCancel(context.Background())
	defer stopLoop()
	go eng.Loop(loopCtx)

	v, err := c.SubmitRequest(online.RequestSpec{PromptLen: 128, MaxTokens: 6})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatal("submission returned no id")
	}

	// Stream to completion: exactly MaxTokens token events, then the
	// terminal line.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var events []TokenEvent
	if err := c.StreamRequest(ctx, v.ID, func(ev TokenEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 7 {
		t.Fatalf("got %d stream events, want 6 tokens + terminal: %+v", len(events), events)
	}
	for i, ev := range events[:6] {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if events[6].State != online.StateCompleted {
		t.Fatalf("terminal event state = %s", events[6].State)
	}

	sv, err := c.Request(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sv.State != online.StateCompleted || sv.Tokens != 6 || sv.TTFT <= 0 {
		t.Fatalf("final view: %+v", sv)
	}

	// Cancel round-trips. The engine fast-forwards virtual time while
	// idle, so the request may legitimately complete before the cancel
	// lands — determinism of cancellation itself is pinned by the
	// engine's own tests; here we pin the endpoint contract.
	fv, err := c.SubmitRequest(online.RequestSpec{PromptLen: 128, MaxTokens: 6, ArrivalSeconds: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := c.CancelRequest(fv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cv.State != online.StateCanceled && cv.State != online.StateCompleted &&
		cv.State != online.StateQueued && cv.State != online.StateDecoding &&
		cv.State != online.StatePrefilling && cv.State != online.StateHandoff {
		t.Fatalf("cancel returned unexpected state %s", cv.State)
	}

	if rs, err := c.Requests(); err != nil || len(rs) != 2 {
		t.Fatalf("list: %v, %d requests", err, len(rs))
	}

	// Error mapping: unknown id → 404, invalid spec → 422.
	var se *StatusError
	if _, err := c.Request("nope"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("unknown request: %v", err)
	}
	if _, err := c.SubmitRequest(online.RequestSpec{PromptLen: 0, MaxTokens: 1}); !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid spec: %v", err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Online == nil {
		t.Fatal("metrics missing online section")
	}
	if m.Online.Completed < 1 || m.Online.TTFT.Count < 1 || m.Online.TBT.Count < 1 {
		t.Fatalf("online metrics not populated: %+v", m.Online)
	}
}

// TestOnlineTierDisabled pins the 404 for daemons without -online.
func TestOnlineTierDisabled(t *testing.T) {
	srv, c := startServer(t, testConfig(""))
	defer shutdown(t, srv)
	var se *StatusError
	if _, err := c.Requests(); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("disabled tier: %v", err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Online != nil {
		t.Fatal("metrics grew an online section without an engine")
	}
}

// TestOfflineLatencyPercentiles: completed batch jobs feed the
// queue-wait and execution-latency digests in /v1/metrics.
func TestOfflineLatencyPercentiles(t *testing.T) {
	srv, c := startServer(t, testConfig(""))
	defer shutdown(t, srv)
	j, err := c.Submit(JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, j.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobQueueWait.Count < 1 {
		t.Fatalf("queue-wait digest empty: %+v", m.JobQueueWait)
	}
	if m.JobExecLatency.Count < 1 || m.JobExecLatency.P50 <= 0 {
		t.Fatalf("exec-latency digest empty: %+v", m.JobExecLatency)
	}
	if m.JobQueueWait.P99 < m.JobQueueWait.P50 {
		t.Fatalf("inconsistent digest: %+v", m.JobQueueWait)
	}
}

// TestMetricsCapacitySection: /v1/metrics reports per-pool utilization
// and the capacity advisor's recommended-vs-actual device counts — the
// offline pools from executor busy time, the streaming tier's pools
// from the engine's busy fractions.
func TestMetricsCapacitySection(t *testing.T) {
	eng := onlineEngine(t)
	cfg := testConfig("")
	cfg.Online = eng
	srv, c := startServer(t, cfg)
	defer shutdown(t, srv)

	// One completed offline job gives pool1 nonzero busy time; a short
	// synchronous replay gives the engine nonzero busy fractions.
	j, err := c.Submit(JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, j.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	specs := make([]online.RequestSpec, 8)
	for i := range specs {
		specs[i] = online.RequestSpec{PromptLen: 128, MaxTokens: 4, ArrivalSeconds: float64(i)}
	}
	eng.Replay(specs, 0)

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, adv := range m.Capacity {
		rows[adv.Pool] = true
		if adv.Devices < 1 || adv.RecommendedDevices < 1 || adv.Action == "" {
			t.Fatalf("degenerate advice row %+v", adv)
		}
		if adv.Utilization < 0 || adv.TargetRho <= 0 {
			t.Fatalf("advice row missing utilization/target: %+v", adv)
		}
	}
	if !rows["pool1"] || !rows["online-prefill"] {
		t.Fatalf("capacity rows %v, want pool1 and online-prefill", rows)
	}
	if rows["online-decode"] {
		t.Fatal("colocated engine grew a decode pool row")
	}
	var pre *capacity.PoolAdvice
	for i := range m.Capacity {
		if m.Capacity[i].Pool == "online-prefill" {
			pre = &m.Capacity[i]
		}
	}
	if pre.Utilization <= 0 || pre.Utilization > 1 {
		t.Fatalf("prefill busy fraction %.3f outside (0,1]", pre.Utilization)
	}
}
