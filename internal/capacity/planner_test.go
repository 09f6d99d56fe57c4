package capacity

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/workload"
)

func planReference(t *testing.T) (*Recommendation, *workload.Profile) {
	t.Helper()
	profile := workload.ShareGPT(stats.NewRNG(5), 64).Filter(model.OPT13B.MaxPos)
	rec, err := PlanFleet(context.Background(), PlanInput{
		Spec:    model.OPT13B,
		Profile: profile,
		Rate:    2.0,
		SLO:     SLO{QueueWaitP95: 0.5, TTFTP95: 1.0, TBTMean: 0.05},
		Classes: []gpu.DeviceClass{gpu.V100, gpu.A100},
	})
	if err != nil {
		t.Fatalf("PlanFleet: %v", err)
	}
	return rec, profile
}

// TestPlanFleetMeetsSLO is the planner's end-to-end acceptance check:
// the recommended min-cost fleet must meet the SLO both analytically
// and when the recommended engine configuration replays a seeded day of
// traffic — with the simulated queue-wait p95 within 20% of the
// analytic prediction (absolute floor 50ms for near-zero waits).
func TestPlanFleetMeetsSLO(t *testing.T) {
	rec, profile := planReference(t)
	if rec.Fleet.Devices() < 2 {
		t.Fatalf("fleet %s too small for disaggregation", rec.Fleet)
	}
	if !rec.Analysis.SLOk() {
		t.Fatalf("recommended fleet violates its own analysis: %v", rec.Analysis.Violations)
	}
	if rec.CostPerHour <= 0 {
		t.Errorf("cost %.2f", rec.CostPerHour)
	}
	if rec.DecodeConcurrency < 1 {
		t.Errorf("decode concurrency %d", rec.DecodeConcurrency)
	}
	if rec.AdmissionThreshold < 2*rec.Analysis.Prefill.B {
		t.Errorf("admission threshold %d below two full groups", rec.AdmissionThreshold)
	}
	if rec.Config.QueueCapacity != rec.AdmissionThreshold {
		t.Errorf("config queue capacity %d != admission threshold %d",
			rec.Config.QueueCapacity, rec.AdmissionThreshold)
	}

	eng, err := online.New(rec.Config)
	if err != nil {
		t.Fatal(err)
	}
	specs := online.Arrivals(stats.NewRNG(2024), profile, 2.0, 400, 0)
	m := eng.Replay(specs, 0)
	if m.Completed != 400 {
		t.Fatalf("completed %d of 400 (rejected %d)", m.Completed, m.Rejected)
	}
	t.Logf("fleet %s cost %.2f: wait p95 %.3f/%.3f ttft p95 %.3f/%.3f tbt %.4f/%.4f (analytic/simulated)",
		rec.Fleet, rec.CostPerHour,
		rec.Analysis.Prefill.WaitP95, m.QueueWait.P95,
		rec.Analysis.Prefill.TTFTP95, m.TTFT.P95,
		rec.Analysis.Decode.TBT, m.TBT.Mean)
	within(t, "queue-wait p95", rec.Analysis.Prefill.WaitP95, m.QueueWait.P95, 0.20, 0.05)
	if m.QueueWait.P95 > 0.5 {
		t.Errorf("simulated wait p95 %.3f busts the 0.5s SLO", m.QueueWait.P95)
	}
	if m.TTFT.P95 > 1.0 {
		t.Errorf("simulated ttft p95 %.3f busts the 1.0s SLO", m.TTFT.P95)
	}
	if m.TBT.Mean > 0.05 {
		t.Errorf("simulated tbt mean %.4f busts the 0.05s SLO", m.TBT.Mean)
	}
}

// TestOneSmallerFleetMissesSLO removes one device from the recommended
// fleet's cheapest class and shows the shrunken fleet measurably misses
// the SLO — i.e. the recommendation sits on the feasibility boundary,
// not comfortably above it.
func TestOneSmallerFleetMissesSLO(t *testing.T) {
	rec, profile := planReference(t)
	slo := SLO{QueueWaitP95: 0.5, TTFTP95: 1.0, TBTMean: 0.05}

	// Every strictly cheaper candidate the planner visited was
	// infeasible (cheapest-first search), so in particular each
	// one-device-smaller variant of the recommendation must fail.
	tried := 0
	for class := range rec.Fleet {
		smaller := FleetSpec{}
		for c, n := range rec.Fleet {
			smaller[c] = n
		}
		smaller[class]--
		if smaller[class] == 0 {
			delete(smaller, class)
		}
		if smaller.Devices() < 2 {
			continue // can't disaggregate at all — misses by construction
		}
		tried++
		a, err := analyzeFleet(smaller, profile, 2.0, slo)
		if err != nil {
			t.Logf("fleet %s: cannot even be phase-planned (%v) — misses by construction", smaller, err)
			continue
		}
		if a.SLOk() {
			t.Errorf("one-smaller fleet %s still meets the SLO — recommendation %s was not minimal",
				smaller, rec.Fleet)
		} else {
			t.Logf("fleet %s misses: %v", smaller, a.Violations)
		}
	}
	if tried == 0 {
		t.Skip("recommended fleet has no shrinkable class above the 2-device floor")
	}
}

// analyzeFleet phase-plans an explicit fleet exactly the way the
// planner does and returns its analysis at the given rate and SLO.
func analyzeFleet(fs FleetSpec, profile *workload.Profile, rate float64, slo SLO) (*Analysis, error) {
	spec := model.OPT13B
	bits := []int{3, 4, 8, 16}
	ind := core.ProfileIndicator(spec, bits, quant.Deterministic)
	batch, err := workload.Synthesize(profile, 16, 256, spec.MaxPos)
	if err != nil {
		return nil, err
	}
	clu := fs.Cluster("shrunk", cluster.Eth800BW)
	dp, err := core.PlanDisaggregated(context.Background(), spec, clu, ind,
		core.Options{Bits: bits, TimeLimit: 30 * time.Second}, batch)
	if err != nil {
		return nil, err
	}
	return Analyze(online.Config{
		Spec:           spec,
		PrefillPlan:    dp.Prefill,
		PrefillCluster: dp.PrefillCluster,
		DecodePlan:     dp.Decode,
		DecodeCluster:  dp.DecodeCluster,
		ChunkLen:       256,
		HandoffBW:      cluster.Eth800BW,
	}, profile, rate, slo)
}

// TestPlanFleetInfeasible asks for an SLO no fleet in the search space
// can meet and expects ErrNoFeasibleFleet.
func TestPlanFleetInfeasible(t *testing.T) {
	profile := workload.ShareGPT(stats.NewRNG(5), 64).Filter(model.OPT13B.MaxPos)
	_, err := PlanFleet(context.Background(), PlanInput{
		Spec:        model.OPT13B,
		Profile:     profile,
		Rate:        50.0, // far beyond what 4+4 devices can absorb
		SLO:         SLO{QueueWaitP95: 0.05, TTFTP95: 0.1, TBTMean: 0.005},
		Classes:     []gpu.DeviceClass{gpu.V100},
		MaxPerClass: 2,
	})
	if !errors.Is(err, ErrNoFeasibleFleet) {
		t.Fatalf("err = %v, want ErrNoFeasibleFleet", err)
	}
}

func TestPlanFleetInputValidation(t *testing.T) {
	profile := workload.Fixed(4, 100, 10)
	cases := []PlanInput{
		{Profile: profile, Rate: 1},                                 // no spec
		{Spec: model.OPT1B3, Rate: 1},                               // no profile
		{Spec: model.OPT1B3, Profile: profile},                      // no rate
		{Spec: model.OPT1B3, Profile: &workload.Profile{}, Rate: 1}, // empty profile
	}
	for i, in := range cases {
		if _, err := PlanFleet(context.Background(), in); err == nil {
			t.Errorf("case %d: invalid input accepted", i)
		}
	}
}

func TestFleetSpecHelpers(t *testing.T) {
	fs := FleetSpec{gpu.V100: 2, gpu.A100: 1}
	if fs.Devices() != 3 {
		t.Errorf("devices %d", fs.Devices())
	}
	wantCost := 2*DefaultDeviceCost[gpu.V100] + DefaultDeviceCost[gpu.A100]
	if got := fs.Cost(); got != wantCost {
		t.Errorf("cost %.2f, want %.2f", got, wantCost)
	}
	s := fs.String()
	if !strings.Contains(s, "2x") || !strings.Contains(s, "1x") {
		t.Errorf("String() = %q", s)
	}
	if (FleetSpec{}).String() != "(empty)" {
		t.Errorf("empty String() = %q", FleetSpec{}.String())
	}
	clu := fs.Cluster("test", 1e9)
	if len(clu.Nodes) != 2 {
		t.Fatalf("%d nodes", len(clu.Nodes))
	}
	total := 0
	for _, n := range clu.Nodes {
		total += n.Count
	}
	if total != 3 {
		t.Errorf("cluster devices %d", total)
	}
}

func TestEnumerateFleets(t *testing.T) {
	fleets := enumerateFleets([]gpu.DeviceClass{gpu.V100, gpu.A100}, 2)
	// 3×3 count vectors minus the empty one.
	if len(fleets) != 8 {
		t.Fatalf("%d fleets, want 8", len(fleets))
	}
	seen := map[string]bool{}
	for _, f := range fleets {
		if f.Devices() == 0 {
			t.Error("empty fleet enumerated")
		}
		if seen[f.String()] {
			t.Errorf("duplicate fleet %s", f)
		}
		seen[f.String()] = true
	}
}
