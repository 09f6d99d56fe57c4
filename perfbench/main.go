// Command perfbench is the repository's benchmark. It drives the serving
// system through its public entry points on four fixed-shape workloads
// generated from a seed, checks every output, and reports metrics counted
// in process CPU seconds or computed deterministically:
//
//	bash perfbench/run.sh --workload offline-warm --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload online-day --seed 1 --seconds 20 --trace 1
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics of the traced run with
// --trace 1. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"offline-cold", "offline-warm", "online-day", "stage-chain"}

func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "offline-cold":
		return &offlineWorkload{cold: true}, nil
	case "offline-warm":
		return &offlineWorkload{}, nil
	case "online-day":
		return &onlineWorkload{}, nil
	case "stage-chain":
		return &chainWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloadNames, ", "))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 15, "wall seconds of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the measured run")
	out := fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if _, err := newWorkload(n); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := startEnv(*seed)

	var line result
	var err error
	if *trace == 1 {
		line, err = tracedRun(*seed, *seconds, *out, stdout)
	} else {
		line, err = measuredRuns(names, *seed, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, env)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	return 0
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measuredRuns runs each named workload untraced and prints its report.
// With one workload the JSON metrics are its end-to-end metrics; with
// "all" they are prefixed by the workload name.
func measuredRuns(names []string, seed uint64, seconds float64, stdout io.Writer) (result, error) {
	line := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		w, _ := newWorkload(n)
		o, err := measure(w, runConfig{seed: seed, seconds: seconds, setups: setupRepeats[n]}, nil)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", n, err)
		}
		o.print(stdout)
		line.Attempted += o.attempted
		line.Failed += o.failed
		line.Correct = line.Correct && o.failed == 0 && len(o.problems) == 0
		for _, mv := range o.endToEnd() {
			key := mv.name
			if len(names) > 1 {
				key = n + "." + mv.name
			}
			line.Metrics[key] = metricValue{mv.value, mv.unit}
		}
	}
	return line, nil
}

// setupRepeats is how many times a measured run sets each workload up;
// setup_s is the median. A short set-up is repeated more often, so every
// workload's median covers a few seconds of CPU: offline-cold's is one
// small plan (about 0.5 s), offline-warm's plans the four shapes (about
// 9 s), online-day's plans a fleet (about 1.2 s) and stage-chain's builds
// a small model (about 0.15 s).
var setupRepeats = map[string]int{"offline-cold": 9, "offline-warm": 3, "online-day": 5, "stage-chain": 15}

// runConfig fixes how much of a workload one run does.
type runConfig struct {
	seed    uint64
	seconds float64
	// blocks, when > 0, runs exactly that many blocks instead of
	// running blocks until seconds are spent.
	blocks int
	// setups is how often the workload is set up; setup_s is the median.
	setups int
	// obs switches on the program's own serve and online tracers.
	obs bool
}

// benchWorkload is one benchmark workload. Its ops come in blocks: a
// block is a fixed list of ops generated from the seed, and a run repeats
// whole blocks, so every per-op figure is taken over the same mix.
type benchWorkload interface {
	name() string
	// prepare generates the run's inputs from the seed and returns their
	// fingerprint.
	prepare(seed uint64) (uint64, error)
	// setup builds the system under test; it is what setup_s counts.
	setup(cfg runConfig) error
	teardown()
	// block runs block idx, timing each op with m and, when tr is not
	// nil, recording spans around the calls into each layer.
	block(idx int, m *meter, tr *tracer, o *outcome) error
	// finish runs the end-of-run checks and adds the behaviour metrics.
	finish(o *outcome)
	// traceExtra runs after the traced arm's blocks, before tear-down,
	// and records the calls that are not part of an op.
	traceExtra(tr *tracer, o *outcome) error
	// layers derives the workload's per-layer metrics from a traced run.
	layers(a arms) []namedValue
}

// outcome collects what one run of one workload measured.
type outcome struct {
	workload          string
	attempted, failed int
	problems          []string
	setupCPU          []float64
	meter             *meter
	blocks            int
	blockRate         []float64 // ops per CPU-second of each block
	heapLive          uint64
	inputs            uint64
	// behaviour holds the workload's deterministic metrics; they are
	// printed with every run and must repeat exactly for a seed.
	behaviour []namedValue
	// counters are totals a workload reports for the per-layer metrics.
	counters map[string]float64
}

func (o *outcome) count(name string, v float64) {
	if o.counters == nil {
		o.counters = map[string]float64{}
	}
	o.counters[name] += v
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

// fail counts n failed ops and keeps the first few reasons for the report.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) addBehaviour(name string, value float64, unit string) {
	o.behaviour = append(o.behaviour, namedValue{name, value, unit})
}

// ops is the number of ops the measured phase timed.
func (o *outcome) ops() int { return o.meter.ops }

// endToEnd returns the gated metrics, in BENCHMARK.json order. They apply
// to every workload.
func (o *outcome) endToEnd() []namedValue {
	ops := float64(o.ops())
	return []namedValue{
		{"setup_s", median(o.setupCPU), "s"},
		{"ops_per_cpu_s", median(o.blockRate), "1/s"},
		{"op_cpu_p50_ms", o.meter.typicalOpCPU() * 1e3, "ms"},
		{"alloc_kb_per_op", float64(o.meter.allocSum) / 1024 / ops, "KiB"},
		{"heap_live_mb", float64(o.heapLive) / (1 << 20), "MiB"},
	}
}

// p90 reports the p90 op CPU only where at least ten samples lie beyond it.
func (o *outcome) p90() (float64, bool) {
	if len(o.meter.opCPU) < 100 {
		return 0, false
	}
	return quantile(o.meter.opCPU, 0.9) * 1e3, true
}

func (o *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d blocks, %d ops attempted, %d failed, measured wall %.2fs, inputs %016x\n",
		o.workload, o.blocks, o.attempted, o.failed, o.meter.wall.Seconds(), o.inputs)
	for _, p := range o.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	for _, mv := range o.endToEnd() {
		fmt.Fprintf(w, "  %-20s %14.6g %s\n", mv.name, mv.value, mv.unit)
	}
	if v, ok := o.p90(); ok {
		fmt.Fprintf(w, "  %-20s %14.6g %s (n=%d)\n", "op_cpu_p90_ms", v, "ms", len(o.meter.opCPU))
	}
	for _, mv := range o.behaviour {
		fmt.Fprintf(w, "  %-20s %14.6g %s (deterministic)\n", mv.name, mv.value, mv.unit)
	}
	fmt.Fprintf(w, "  diagnostic: wall_ops_per_s %.6g (not gated: wall time counts host steal)\n",
		float64(o.ops())/o.meter.wall.Seconds())
}

// measure runs one workload: set-up cfg.setups times (each counted in
// CPU seconds; all but the last torn down untimed), a forced GC, then
// whole blocks until the budget is spent. With a tracer it also records
// spans around each set-up, the ops and the calls outside ops.
func measure(w benchWorkload, cfg runConfig, tr *tracer) (*outcome, error) {
	o := &outcome{workload: w.name(), meter: newMeter()}
	fp, err := w.prepare(cfg.seed)
	if err != nil {
		return nil, err
	}
	o.inputs = fp
	for i := 0; i < max(cfg.setups, 1); i++ {
		sp := tr.begin(tr.op(), nil, setupSpan[w.name()])
		c0 := cpuNow()
		err := w.setup(cfg)
		o.setupCPU = append(o.setupCPU, cpuNow()-c0)
		sp.end()
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i+1 < cfg.setups {
			w.teardown()
		}
	}
	defer w.teardown()
	if err := runBlocks(w, cfg, o, tr); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := w.traceExtra(tr, o); err != nil {
			return nil, err
		}
	}
	w.finish(o)
	return o, nil
}

// runBlocks runs whole blocks until cfg.seconds of wall time are spent
// (at least one), or exactly cfg.blocks when set, after a forced GC. The
// live heap is read after another forced GC at the end of the first
// block, so it covers the same work in every run.
func runBlocks(w benchWorkload, cfg runConfig, o *outcome, tr *tracer) error {
	runtime.GC()
	start := time.Now()
	for b := 0; ; b++ {
		cpu0, ops0 := o.meter.sumCPU, o.meter.ops
		if err := w.block(b, o.meter, tr, o); err != nil {
			return err
		}
		o.blocks++
		o.blockRate = append(o.blockRate, float64(o.meter.ops-ops0)/(o.meter.sumCPU-cpu0))
		if b == 0 {
			runtime.GC()
			o.heapLive = o.meter.rt.read().liveBytes
		}
		if cfg.blocks > 0 {
			if o.blocks >= cfg.blocks {
				return nil
			}
		} else if time.Since(start).Seconds() >= cfg.seconds {
			return nil
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
