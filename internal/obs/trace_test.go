package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// twoJobTrace records the span shapes the serve executor emits for a
// deterministic two-job run on a virtual clock: per-job queue wait,
// plan (one cold, one cache hit), and two batches each.
func twoJobTrace() *Tracer {
	clock := 0.0
	tr := NewVirtualTracer(func() float64 { return clock })
	tr.Instant("serve", "submit", 0, map[string]any{"job": "job-000001"})
	tr.Instant("serve", "submit", 0.5, map[string]any{"job": "job-000002"})
	tr.Span("pool-a", "queue-wait", 0, 1, map[string]any{"job": "job-000001"})
	tr.Span("pool-a", "plan", 1, 2, map[string]any{"job": "job-000001", "cache": "cold"})
	tr.Span("pool-a", "batch 1/2", 3, 4, map[string]any{"job": "job-000001"})
	tr.Span("pool-a", "batch 2/2", 7, 4, map[string]any{"job": "job-000001"})
	tr.Span("pool-b", "queue-wait", 0.5, 2.5, map[string]any{"job": "job-000002"})
	tr.Span("pool-b", "plan", 3, 0.25, map[string]any{"job": "job-000002", "cache": "hit"})
	tr.Span("pool-b", "batch 1/2", 3.25, 4, map[string]any{"job": "job-000002"})
	tr.Span("pool-b", "batch 2/2", 7.25, 4, map[string]any{"job": "job-000002"})
	return tr
}

// TestChromeTraceGolden pins the Chrome trace-event JSON a
// deterministic two-job run exports: thread-name metadata per track,
// microsecond timestamps, and ph:"X"/"i" phases.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := twoJobTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "trace_2jobs.golden.json", buf.Bytes())

	// The golden must also parse as the trace-event schema Perfetto
	// loads: a traceEvents array whose spans carry ts/dur/pid/tid.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans, metas := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
		case "M":
			metas++
		}
	}
	if spans != 8 || metas != 3 {
		t.Fatalf("got %d spans / %d track metas, want 8 / 3", spans, metas)
	}
}

func TestTracerDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := twoJobTrace().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := twoJobTrace().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("identical runs exported different traces")
	}
}

func TestNDJSONSink(t *testing.T) {
	var buf bytes.Buffer
	clock := 0.0
	tr := NewVirtualTracer(func() float64 { return clock })
	tr.SetSink(&buf)
	tr.Span("pool", "batch", 0, 1, nil)
	tr.Instant("pool", "preempted", 1, map[string]any{"pool": "a"})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d NDJSON lines, want 2", len(lines))
	}
	for _, l := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
	}
}

func TestTracerLimit(t *testing.T) {
	tr := NewVirtualTracer(func() float64 { return 0 })
	tr.SetLimit(4)
	for i := 0; i < 10; i++ {
		tr.Instant("t", "e", float64(i), nil)
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("buffered %d events, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Span("a", "b", 0, 1, nil)
	tr.Instant("a", "b", 0, nil)
	tr.SetSink(nil)
	tr.SetLimit(1)
	if tr.Now() != 0 || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer misbehaved")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}
