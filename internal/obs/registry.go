// Package obs is the unified telemetry layer: a lock-cheap metrics
// registry with Prometheus text exposition, a span tracer that works
// against both wall clocks and the online engine's virtual clock
// (exporting Chrome trace-event JSON and NDJSON event logs), and Go
// runtime instrumentation. Every subsystem — serve, online, transport,
// scheduler, capacity — registers its families here, so the daemon's
// /metrics endpoint and the /v1/metrics JSON view read one source of
// truth instead of parallel hand-rolled counter structs.
//
// The hot-path types (Counter, Gauge, Histogram) are single atomic
// words or fixed atomic arrays: incrementing a counter is one
// atomic add, observing a histogram sample is two atomic adds plus a
// branchless bucket scan. Labeled families hand out cached children,
// so call sites resolve their series once and hold the pointer.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families a Registry holds.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// metric is one series: a float64 held as atomic bits, plus the bucket
// counters when the family is a histogram.
type metric struct {
	labelValues []string
	bits        atomic.Uint64 // counter/gauge value (float64 bits)
	buckets     []atomic.Uint64
	sumBits     atomic.Uint64
	count       atomic.Uint64
}

func (m *metric) value() float64 { return math.Float64frombits(m.bits.Load()) }

func (m *metric) set(v float64) { m.bits.Store(math.Float64bits(v)) }

func (m *metric) add(v float64) {
	for {
		old := m.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if m.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// family is one named group of series sharing a kind and label schema.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64      // histogram upper bounds, strictly increasing
	fn         func() float64 // function-backed single unlabeled series

	mu     sync.RWMutex
	series map[string]*metric
}

// child returns (creating on first use) the series for one label-value
// tuple.
func (f *family) child(values []string) *metric {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := joinKey(values)
	f.mu.RLock()
	m, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.series[key]; ok {
		return m
	}
	m = &metric{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		m.buckets = make([]atomic.Uint64, len(f.buckets))
	}
	f.series[key] = m
	return m
}

// joinKey builds a collision-free map key from label values (values may
// contain any byte, so a plain separator join is not enough).
func joinKey(values []string) string {
	if len(values) == 0 {
		return ""
	}
	n := 0
	for _, v := range values {
		n += len(v) + 4
	}
	b := make([]byte, 0, n)
	for _, v := range values {
		b = strconv.AppendInt(b, int64(len(v)), 10)
		b = append(b, ':')
		b = append(b, v...)
	}
	return string(b)
}

// Registry holds metric families and the gather hooks that refresh
// sampled values (queue depths, runtime stats) at scrape time.
type Registry struct {
	mu        sync.RWMutex
	families  map[string]*family
	gatherers []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// OnGather registers fn to run at the start of every exposition —
// the hook point for sampled gauges (queue depth, busy fractions, Go
// runtime stats) that are cheaper to read on demand than to maintain on
// every mutation. Hooks run in registration order.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	r.gatherers = append(r.gatherers, fn)
	r.mu.Unlock()
}

// lookup returns (creating if absent) the family, enforcing that
// re-registration under the same name agrees on kind and label schema —
// so Instrument calls are idempotent but genuine collisions fail loudly.
func (r *Registry) lookup(name, help string, kind Kind, buckets []float64, labels []string) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.families[name]; !ok {
			f = &family{
				name:       name,
				help:       help,
				kind:       kind,
				labelNames: append([]string(nil), labels...),
				series:     map[string]*metric{},
			}
			if kind == KindHistogram {
				f.buckets = append([]float64(nil), buckets...)
				for i := 1; i < len(f.buckets); i++ {
					if f.buckets[i] <= f.buckets[i-1] {
						panic(fmt.Sprintf("obs: histogram %s buckets not strictly increasing", name))
					}
				}
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	if len(f.labelNames) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered with %d labels (was %d)", name, len(labels), len(f.labelNames)))
	}
	for i := range labels {
		if f.labelNames[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %s re-registered with label %q (was %q)", name, labels[i], f.labelNames[i]))
		}
	}
	return f
}

// Counter is a monotonically increasing series.
type Counter struct{ m *metric }

// Inc adds one.
func (c *Counter) Inc() { c.m.add(1) }

// Add adds v (negative deltas are ignored — counters only go up).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.m.add(v)
	}
}

// Set overwrites the counter's value. It exists for mirroring an
// external monotonic source (an engine's own counters, a transport
// driver's atomics) from a gather hook; direct instrumentation should
// use Inc/Add.
func (c *Counter) Set(v float64) { c.m.set(v) }

// Value reads the current value.
func (c *Counter) Value() float64 { return c.m.value() }

// Gauge is a series that can go up and down.
type Gauge struct{ m *metric }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.m.set(v) }

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { g.m.add(v) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return g.m.value() }

// Histogram is a fixed-bucket distribution. Buckets are upper bounds;
// every observation also lands in the implicit +Inf bucket (the count).
type Histogram struct {
	f *family
	m *metric
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.m.buckets[i].Add(1)
			break
		}
	}
	for {
		old := h.m.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.m.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.m.count.Add(1)
}

// Count is the total number of observations.
func (h *Histogram) Count() uint64 { return h.m.count.Load() }

// Sum is the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.m.sumBits.Load()) }

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the child counter for one label-value tuple.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{m: v.f.child(values)} }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{m: v.f.child(values)} }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{f: v.f, m: v.f.child(values)}
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, KindCounter, nil, nil)
	return &Counter{m: f.child(nil)}
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, KindCounter, nil, labels)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, KindGauge, nil, nil)
	return &Gauge{m: f.child(nil)}
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, KindGauge, nil, labels)}
}

// Histogram registers (or fetches) an unlabeled fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, KindHistogram, buckets, nil)
	return &Histogram{f: f, m: f.child(nil)}
}

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, KindHistogram, buckets, labels)}
}

// CounterFunc registers a function-backed counter: the value is read at
// every exposition, so an existing atomic (a transport driver's
// reconnect count) surfaces without a mirroring hook.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, KindCounter, nil, nil)
	f.fn = fn
}

// GaugeFunc registers a function-backed gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, KindGauge, nil, nil)
	f.fn = fn
}

// DefBuckets is a general-purpose latency bucket ladder in seconds,
// spanning sub-millisecond token steps to multi-minute plan searches.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250,
}

// snapshot returns the families sorted by name, with each family's
// series sorted by label values — the stable iteration order exposition
// and tests rely on.
func (r *Registry) snapshot() ([]*family, [][]*metric) {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	series := make([][]*metric, len(fams))
	for i, f := range fams {
		f.mu.RLock()
		ms := make([]*metric, 0, len(f.series))
		for _, m := range f.series {
			ms = append(ms, m)
		}
		f.mu.RUnlock()
		sort.Slice(ms, func(a, b int) bool {
			x, y := ms[a].labelValues, ms[b].labelValues
			for k := range x {
				if x[k] != y[k] {
					return x[k] < y[k]
				}
			}
			return false
		})
		series[i] = ms
	}
	return fams, series
}
