package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// runOnce measures one block of a workload with a single set-up.
func runOnce(t *testing.T, name string, seed uint64) *outcome {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	o, err := measure(w, runConfig{seed: seed, blocks: 1, setups: 1}, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if o.failed != 0 || len(o.problems) != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", name, o.failed, o.attempted, o.problems)
	}
	return o
}

func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := runOnce(t, name, 1)
			if o.ops() == 0 || o.attempted < o.ops() {
				t.Fatalf("%d ops timed, %d attempted", o.ops(), o.attempted)
			}
			for _, mv := range o.endToEnd() {
				if !(mv.value > 0) || math.IsInf(mv.value, 0) {
					t.Errorf("%s = %v %s, want a finite value > 0", mv.name, mv.value, mv.unit)
				}
			}
			for _, mv := range o.behaviour {
				if math.IsNaN(mv.value) || mv.value <= 0 {
					t.Errorf("behaviour metric %s = %v", mv.name, mv.value)
				}
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := runOnce(t, name, 3), runOnce(t, name, 3)
			if a.attempted != b.attempted || a.ops() != b.ops() {
				t.Errorf("op counts differ: %d/%d attempted, %d/%d timed", a.attempted, b.attempted, a.ops(), b.ops())
			}
			if len(a.behaviour) != len(b.behaviour) {
				t.Fatalf("behaviour metrics differ: %v vs %v", a.behaviour, b.behaviour)
			}
			for i := range a.behaviour {
				if a.behaviour[i] != b.behaviour[i] {
					t.Errorf("%s: %v then %v", a.behaviour[i].name, a.behaviour[i].value, b.behaviour[i].value)
				}
			}
			ka, kb := a.endToEnd()[3].value, b.endToEnd()[3].value
			if math.Abs(ka-kb) > 0.01*ka {
				t.Errorf("alloc_kb_per_op %.3f then %.3f: more than 1%% apart", ka, kb)
			}
		})
	}
}

// TestOnlineFirstBlockFailure checks that a rung failing its checks in
// block 0 is reported as a failure, and that later blocks still compare
// each rung with block 0's replay of the same rung.
func TestOnlineFirstBlockFailure(t *testing.T) {
	w := &onlineWorkload{}
	if _, err := w.prepare(1); err != nil {
		t.Fatal(err)
	}
	// An empty day at the lowest rung has no handoffs, so that rung fails
	// its checks in every block.
	w.days[0] = nil
	if err := w.setup(runConfig{}); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	o := &outcome{workload: w.name(), meter: newMeter()}
	if err := runBlocks(w, runConfig{blocks: 2}, o, nil); err != nil {
		t.Fatal(err)
	}
	w.finish(o)
	if o.failed != 0 || len(o.problems) != 2 {
		t.Fatalf("%d failed ops, problems %q; want the empty rung's handoff check once per block", o.failed, o.problems)
	}
	for _, p := range o.problems {
		if !strings.Contains(p, "no prefill→decode handoffs") {
			t.Errorf("unexpected problem %q", p)
		}
	}
	if o.counters["handoffs"] == 0 {
		t.Error("design rung reports no handoffs")
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name)
		a, err := w.prepare(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.prepare(2)
		if err != nil {
			t.Fatal(err)
		}
		again, err := w.prepare(1)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", name)
		}
		if a != again {
			t.Errorf("%s: seed 1 generates different inputs on a second call", name)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that the metrics a run reports
// are exactly the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced run")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	o := runOnce(t, "stage-chain", 1)
	e2e := map[string]string{}
	for _, mv := range o.endToEnd() {
		e2e[mv.name] = mv.unit
	}
	sameNames(t, "end_to_end", declared(spec.EndToEnd), e2e)

	line, err := tracedRun(1, 1, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 {
		t.Fatalf("traced run: correct=%v, %d of %d failed", line.Correct, line.Failed, line.Attempted)
	}
	layers := map[string]string{}
	for k, v := range line.Metrics {
		layers[k] = v.Unit
	}
	sameNames(t, "per_layer", declared(spec.PerLayer), layers)
}

func sameNames(t *testing.T, what string, want, got map[string]string) {
	t.Helper()
	var diff []string
	for k, u := range want {
		if got[k] != u {
			diff = append(diff, "declared "+k+" ["+u+"], reported ["+got[k]+"]")
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diff = append(diff, "reported "+k+" is not declared")
		}
	}
	sort.Strings(diff)
	for _, d := range diff {
		t.Errorf("%s: %s", what, d)
	}
}
