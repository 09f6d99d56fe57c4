package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Spans of one op share Op; Parent is 0 for an op's
// root span.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Op       int                `json:"op"`
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	CPU      float64            `json:"cpu_s"`
	Alloc    uint64             `json:"alloc_bytes"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`

	tr     *tracer
	cpu0   float64
	alloc0 uint64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the measured runs share the traced run's code.
type tracer struct {
	workload string
	t0       time.Time
	rt       *runtimeReader
	spans    []*span
	ops      int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), rt: newRuntimeReader()} }

// op returns a new op id.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

func (t *tracer) begin(op int, parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Op: op, Workload: t.workload, Name: name, tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	s.StartNS = time.Since(t.t0).Nanoseconds()
	s.alloc0 = t.rt.read().allocBytes
	s.cpu0 = cpuNow()
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.CPU = cpuNow() - s.cpu0
	s.Alloc = s.tr.rt.read().allocBytes - s.alloc0
	s.EndNS = time.Since(s.tr.t0).Nanoseconds()
}

func (s *span) set(key string, v float64) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// layerOf is the module a span's call enters: the part of its name
// before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanSet is the spans one workload recorded.
type spanSet struct {
	spans []*span
	self  map[int]float64 // span id → CPU minus its children's CPU
}

func (t *tracer) of(workload string) spanSet {
	ss := spanSet{self: map[int]float64{}}
	for _, s := range t.spans {
		if s.Workload == workload {
			ss.spans = append(ss.spans, s)
			ss.self[s.ID] += s.CPU
			if s.Parent != 0 {
				ss.self[s.Parent] -= s.CPU
			}
		}
	}
	return ss
}

// named returns the spans called name.
func (ss spanSet) named(name string) []*span {
	var out []*span
	for _, s := range ss.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// each returns f of each span, in order.
func each(spans []*span, f func(*span) float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = f(s)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// selfPerOp returns each layer's self CPU milliseconds per op, over the
// spans of ops whose root span is called root.
func (ss spanSet) selfPerOp(root string, ops int) map[string]float64 {
	roots := map[int]bool{}
	for _, s := range ss.spans {
		if s.Parent == 0 && s.Name == root {
			roots[s.Op] = true
		}
	}
	out := map[string]float64{}
	for _, s := range ss.spans {
		if roots[s.Op] {
			out[layerOf(s.Name)] += ss.self[s.ID] * 1e3 / float64(ops)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// arms are the runs of one workload inside the traced run: plain is
// untraced, traced records spans, and obs (offline-warm and online-day
// only) switches the program's own serve/online tracers on.
type arms struct {
	plain, traced, obs *outcome
	spans              spanSet
}

func (a arms) rate(o *outcome) float64 { return float64(o.ops()) / o.meter.sumCPU }

// overhead is how much slower per CPU-second o ran than the plain arm.
func (a arms) overhead(o *outcome) float64 { return a.rate(a.plain)/a.rate(o) - 1 }

// obsArm lists the workloads whose traced run also measures the
// program's own tracers.
var obsArm = map[string]bool{"offline-warm": true, "online-day": true}

// setupSpan names the span around a traced arm's set-up.
var setupSpan = map[string]string{
	"offline-cold": "serve.setup",
	"offline-warm": "serve.setup",
	"online-day":   "capacity.planfleet",
	"stage-chain":  "transport.setup",
}

// opRoot names the root span of one op of each workload.
var opRoot = map[string]string{
	"offline-cold": "serve.job",
	"offline-warm": "serve.job",
	"online-day":   "online.replay",
	"stage-chain":  "transport.generate",
}

// tracedRun repeats every workload three ways (plain, traced, and with
// the program's tracers on), splitting the time budget between the arms,
// derives the per-layer metrics, prints them next to the plain arm's
// end-to-end metrics, and writes the spans out as NDJSON.
func tracedRun(seed uint64, seconds float64, outDir string, stdout io.Writer) (result, error) {
	tr := newTracer()
	line := result{Correct: true, Metrics: map[string]metricValue{}}
	nArms := 0
	for _, n := range workloadNames {
		nArms += 2
		if obsArm[n] {
			nArms++
		}
	}
	armCfg := runConfig{seed: seed, seconds: seconds / float64(nArms), setups: 1}
	for _, name := range workloadNames {
		w, _ := newWorkload(name)
		tr.workload = name
		var a arms
		run := func(t *tracer, obsOn bool) (*outcome, error) {
			cfg := armCfg
			cfg.obs = obsOn
			return measure(w, cfg, t)
		}
		var err error
		if a.plain, err = run(nil, false); err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		if a.traced, err = run(tr, false); err != nil {
			return result{}, fmt.Errorf("%s traced: %w", name, err)
		}
		if obsArm[name] {
			if a.obs, err = run(nil, true); err != nil {
				return result{}, fmt.Errorf("%s with program tracers: %w", name, err)
			}
		}
		a.spans = tr.of(name)
		vals := append(w.layers(a), namedValue{"bench.span_overhead." + name, a.overhead(a.traced), "ratio"})
		self := a.spans.selfPerOp(opRoot[name], a.traced.ops())
		for _, layer := range sortedKeys(self) {
			vals = append(vals, namedValue{layer + ".self_ms_per_op." + name, self[layer], "ms"})
		}
		fmt.Fprintf(stdout, "traced run, workload %s\n", name)
		for _, o := range []*outcome{a.plain, a.traced, a.obs} {
			if o == nil {
				continue
			}
			line.Attempted += o.attempted
			line.Failed += o.failed
			line.Correct = line.Correct && o.failed == 0 && len(o.problems) == 0
			for _, p := range o.problems {
				fmt.Fprintf(stdout, "  FAILED: %s\n", p)
			}
		}
		for _, mv := range a.plain.endToEnd() {
			fmt.Fprintf(stdout, "  end-to-end %-36s %14.6g %s\n", mv.name, mv.value, mv.unit)
		}
		for _, mv := range vals {
			fmt.Fprintf(stdout, "  per-layer  %-36s %14.6g %s\n", mv.name, mv.value, mv.unit)
			line.Metrics[mv.name] = metricValue{mv.value, mv.unit}
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("perfbench-spans-seed%d.ndjson", seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(tr.spans), path)
	return line, nil
}
