package splitquant

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNewAndPlanQuickstart(t *testing.T) {
	sys, err := New("opt-30b", Preset(5), WithMethod("heuristic"), WithTheta(1))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Model() != "opt-30b" {
		t.Fatalf("Model = %s", sys.Model())
	}
	if !strings.Contains(sys.Cluster(), "T4") {
		t.Fatalf("Cluster = %s", sys.Cluster())
	}
	dep, err := sys.Plan(FixedWorkload(32, 512, 32), 32)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dep.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput <= 0 || m.OutputTokens != 32*32 {
		t.Fatalf("metrics = %+v", m)
	}
	eta, xi := dep.MicroBatches()
	if eta < 1 || xi < 1 {
		t.Fatalf("micro-batches %d %d", eta, xi)
	}
	if len(dep.Stages()) != 4 && len(dep.Stages()) != 2 && len(dep.Stages()) != 3 {
		t.Fatalf("stage count = %d", len(dep.Stages()))
	}
	if dep.Method() != "heuristic" {
		t.Fatalf("method = %s", dep.Method())
	}
}

func TestUnknownModel(t *testing.T) {
	if _, err := New("gpt-4", Preset(1)); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestCustomCluster(t *testing.T) {
	cs := ClusterSpec{
		Name: "lab",
		Nodes: []Node{
			{Name: "a", GPU: T4, Count: 2},
			{Name: "b", GPU: A100, Count: 1},
		},
		InterconnectGbps: 100,
	}
	sys, err := New("opt-13b", cs, WithMethod("heuristic"), WithTheta(1))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Plan(FixedWorkload(16, 256, 16), 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Measure(); err != nil {
		t.Fatal(err)
	}
}

func TestBadCluster(t *testing.T) {
	if _, err := New("opt-13b", ClusterSpec{Nodes: []Node{{Name: "a", GPU: "H100", Count: 1}}}); err == nil {
		t.Fatal("unknown GPU accepted")
	}
	if _, err := New("opt-13b", ClusterSpec{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	one := ClusterSpec{Nodes: []Node{{Name: "a", GPU: V100, Count: 2}}, InterconnectGbps: -5}
	if _, err := New("opt-13b", one); err == nil || !strings.Contains(err.Error(), "InterconnectGbps") {
		t.Fatalf("negative InterconnectGbps on one node: err = %v", err)
	}
}

func TestPresetRoundTrip(t *testing.T) {
	for n := 1; n <= 10; n++ {
		cs := Preset(n)
		if _, err := cs.build(); err != nil {
			t.Fatalf("preset %d: %v", n, err)
		}
	}
}

func TestWorkloadConstructors(t *testing.T) {
	for _, w := range []Workload{Summarization(1), LongContext(2), Chat(3), FixedWorkload(8, 128, 16)} {
		if w.Name() == "" {
			t.Fatal("unnamed workload")
		}
	}
	if got := Summarization(1).Name(); got != "cnn-dailymail" {
		t.Fatalf("Name = %s", got)
	}
}

func TestBaselineComparison(t *testing.T) {
	mk := func(method Method) float64 {
		sys, err := New("opt-30b", Preset(6), WithMethod(method), WithTheta(1))
		if err != nil {
			t.Fatal(err)
		}
		dep, err := sys.Plan(FixedWorkload(32, 512, 32), 32)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dep.Measure()
		if err != nil {
			t.Fatal(err)
		}
		return m.Throughput
	}
	uni := mk("uniform")
	sq := mk("heuristic")
	if sq <= uni {
		t.Fatalf("SplitQuant %.1f not above Uniform %.1f on cluster 6", sq, uni)
	}
}

func TestQualityFloor(t *testing.T) {
	sys, err := New("opt-30b", Preset(5), WithMethod("heuristic"), WithTheta(0.1), WithQualityFloor(0.4))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Plan(FixedWorkload(32, 512, 32), 32)
	if err != nil {
		t.Fatal(err)
	}
	if dep.QualityPenalty() > 0.4+1e-9 {
		t.Fatalf("quality %v above floor", dep.QualityPenalty())
	}
	if sys.QualityOf(dep) != dep.QualityPenalty() {
		t.Fatal("QualityOf mismatch")
	}
}

func TestWriteJSON(t *testing.T) {
	sys, err := New("opt-13b", Preset(9), WithMethod("heuristic"), WithTheta(1))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Plan(FixedWorkload(16, 256, 16), 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["model"] != "opt-13b" {
		t.Fatalf("json model = %v", decoded["model"])
	}
	stages, ok := decoded["stages"].([]interface{})
	if !ok || len(stages) == 0 {
		t.Fatalf("json stages = %v", decoded["stages"])
	}
}

func TestModelsList(t *testing.T) {
	found := false
	for _, m := range Models() {
		if m == "qwen2.5-7b" {
			found = true
		}
	}
	if !found {
		t.Fatal("Models() missing qwen2.5-7b")
	}
}

func TestOOMPropagates(t *testing.T) {
	sys, err := New("llama3.3-70b", Preset(1), WithMethod("heuristic"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Plan(FixedWorkload(32, 512, 32), 32); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	sys, err := New("opt-13b", Preset(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Plan(Workload{}, 8); err == nil {
		t.Fatal("empty workload accepted")
	}
}
