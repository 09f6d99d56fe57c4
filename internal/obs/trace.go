package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one recorded trace event. Start and Dur are seconds on the
// tracer's clock — wall seconds since the tracer's creation by default,
// or the online engine's virtual clock when the tracer was built with
// NewVirtualTracer. Phase follows the Chrome trace-event convention:
// "X" for complete spans, "i" for instants.
type Event struct {
	Track string         `json:"track"`
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Start float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// defaultTraceCap bounds the in-memory event buffer; events past it are
// counted as dropped rather than growing without bound in a long-lived
// daemon. An NDJSON sink still sees every event.
const defaultTraceCap = 1 << 18

// Tracer records spans and instants against a pluggable clock and
// exports them as Chrome trace-event JSON (Perfetto-loadable) or an
// NDJSON event log. All methods are safe for concurrent use and safe on
// a nil receiver — call sites instrument unconditionally and a nil
// tracer costs one branch.
type Tracer struct {
	mu      sync.Mutex
	clock   func() float64
	events  []Event
	limit   int
	dropped uint64
	sink    *json.Encoder
}

// NewTracer returns a wall-clock tracer: timestamps are seconds since
// its creation.
func NewTracer() *Tracer {
	t0 := time.Now()
	return &Tracer{clock: func() float64 { return time.Since(t0).Seconds() }, limit: defaultTraceCap}
}

// NewVirtualTracer returns a tracer whose Now reads the given clock —
// typically the online engine's virtual clock, so simulated runs trace
// deterministically. Emitters may also pass explicit timestamps, which
// is how virtual-clock spans whose duration is known up front record.
func NewVirtualTracer(clock func() float64) *Tracer {
	return &Tracer{clock: clock, limit: defaultTraceCap}
}

// SetLimit bounds the in-memory buffer (0 restores the default).
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if n <= 0 {
		n = defaultTraceCap
	}
	t.limit = n
	t.mu.Unlock()
}

// SetSink streams every subsequent event to w as one NDJSON line each,
// in addition to buffering it. Pass nil to detach.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if w == nil {
		t.sink = nil
	} else {
		t.sink = json.NewEncoder(w)
	}
	t.mu.Unlock()
}

// Now reads the tracer's clock (0 on a nil tracer).
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	if t.sink != nil {
		t.sink.Encode(ev)
	}
	if len(t.events) >= t.limit {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Span records a complete span with an explicit start and duration —
// the shape virtual-clock instrumentation uses, where the duration of a
// prefill group or handoff is known the moment it is scheduled.
func (t *Tracer) Span(track, name string, start, dur float64, args map[string]any) {
	if t == nil {
		return
	}
	t.record(Event{Track: track, Name: name, Phase: "X", Start: start, Dur: dur, Args: args})
}

// Instant records a zero-duration event at ts.
func (t *Tracer) Instant(track, name string, ts float64, args map[string]any) {
	if t == nil {
		return
	}
	t.record(Event{Track: track, Name: name, Phase: "i", Start: ts, Args: args})
}

// Events snapshots the buffered events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Dropped is the number of events discarded after the buffer filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is the trace-event JSON shape Perfetto and chrome://tracing
// load: timestamps and durations in microseconds, one tid per track.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the buffered events as a Chrome trace-event
// JSON document ({"traceEvents": [...]}): each distinct track becomes a
// named thread (first-seen order), complete spans become ph:"X" events,
// instants ph:"i" with thread scope. Load the file in
// https://ui.perfetto.dev or chrome://tracing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	tids := map[string]int{}
	var out []chromeEvent
	for _, ev := range events {
		tid, ok := tids[ev.Track]
		if !ok {
			tid = len(tids) + 1
			tids[ev.Track] = tid
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": ev.Track},
			})
		}
		ce := chromeEvent{Name: ev.Name, Ph: ev.Phase, Ts: ev.Start * 1e6, Pid: 1, Tid: tid, Args: ev.Args}
		if ev.Phase == "X" {
			dur := ev.Dur * 1e6
			ce.Dur = &dur
		}
		if ev.Phase == "i" {
			ce.S = "t"
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(map[string][]chromeEvent{"traceEvents": out})
}

// ExportChromeTrace writes the Chrome trace JSON to path.
func (t *Tracer) ExportChromeTrace(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: close trace %s: %w", path, err)
	}
	return nil
}
