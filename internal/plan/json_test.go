package plan

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenPlan builds a fixed plan against Table III cluster 5
// (3×T4-16G + 1×V100-32G) mixing TP degrees and bitwidths.
func goldenPlan(t *testing.T) (*Plan, *cluster.Cluster) {
	t.Helper()
	clu := cluster.MustPreset(5)
	byID := map[string]cluster.Device{}
	for _, mesh := range clu.Meshes() {
		for _, d := range mesh {
			byID[d.ID] = d
		}
	}
	pick := func(id string) cluster.Device {
		d, ok := byID[id]
		if !ok {
			t.Fatalf("device %q not in cluster (have %v)", id, byID)
		}
		return d
	}
	return &Plan{
		Model: "opt-13b",
		Stages: []Stage{
			{Device: pick("n0/tp3-0"), FirstLayer: 0, Bits: []int{16, 16, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}},
			{Device: pick("n1/tp1-0"), FirstLayer: 20, Bits: []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3}},
		},
		PrefillMicroBatch: 8,
		DecodeMicroBatch:  4,
		BitKV:             16,
		QualityPenalty:    0.25,
		Objective:         12.5,
		Method:            "heuristic",
		SolveSeconds:      1.5,
	}, clu
}

func TestPlanJSONGolden(t *testing.T) {
	p, _ := goldenPlan(t)
	got, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "golden_plan.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("serialized plan drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p, clu := goldenPlan(t)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Before binding the devices carry identity only, and the plan must
	// refuse to validate (so it cannot reach the simulator unbound).
	if back.Stages[0].Device.Spec != nil {
		t.Fatal("unbound plan should not carry a device spec")
	}
	if err := back.Validate(40); err == nil {
		t.Fatal("unbound plan should fail Validate until Bind")
	}
	if err := back.Bind(clu); err != nil {
		t.Fatal(err)
	}
	if back.Stages[0].Device.Spec == nil || back.Stages[0].Device.Group == nil {
		t.Fatal("bind did not restore the TP group device")
	}
	if got, want := back.Stages[0].Device.UsableMemory(), p.Stages[0].Device.UsableMemory(); got != want {
		t.Fatalf("bound device memory %d, want %d", got, want)
	}
	if !reflect.DeepEqual(back.Bits(), p.Bits()) {
		t.Fatalf("bits drifted: %v vs %v", back.Bits(), p.Bits())
	}
	if back.PrefillMicroBatch != p.PrefillMicroBatch || back.DecodeMicroBatch != p.DecodeMicroBatch ||
		back.BitKV != p.BitKV || back.Method != p.Method || back.Model != p.Model {
		t.Fatalf("scalar fields drifted: %+v vs %+v", back, p)
	}
	// A bound round-tripped plan must still validate.
	if err := back.Validate(40); err != nil {
		t.Fatal(err)
	}
}

func TestPlanBindRejectsForeignCluster(t *testing.T) {
	p, _ := goldenPlan(t)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Cluster 9 (4×V100) has none of cluster 5's device IDs.
	if err := back.Bind(cluster.MustPreset(9)); err == nil {
		t.Fatal("bind against a foreign cluster should fail")
	}
}

// TestPlanBindSingleDevices round-trips a plan over the cluster's single
// GPUs (clu.Devices(), which uniform plans run on and no mesh names):
// Bind must restore every stage's device.
func TestPlanBindSingleDevices(t *testing.T) {
	clu := cluster.MustPreset(6) // 3×P100-12G + 1×V100-32G
	p := &Plan{Model: "bloom-1b7", PrefillMicroBatch: 4, DecodeMicroBatch: 4, BitKV: 16, Method: "uniform"}
	for i, d := range clu.Devices() {
		p.Stages = append(p.Stages, Stage{Device: d, FirstLayer: 6 * i, Bits: []int{16, 16, 16, 16, 16, 16}})
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Bind(clu); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Stages, p.Stages) {
		t.Fatalf("bound stages %+v, want %+v", back.Stages, p.Stages)
	}
}
