package capacity

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/workload"
)

// engineConfig phase-plans a cluster preset for a model and returns a
// ready online.Config, the shared fixture of the calibration tests.
func engineConfig(t *testing.T, spec *model.Spec, preset int) online.Config {
	t.Helper()
	clu := cluster.MustPreset(preset)
	bits := []int{3, 4, 8, 16}
	ind := core.ProfileIndicator(spec, bits, quant.Deterministic)
	batch := workload.Batch{Size: 16, ChunkLen: 256, Chunks: 1, GenTokens: 32}
	dp, err := core.PlanDisaggregated(context.Background(), spec, clu, ind,
		core.Options{Bits: bits, TimeLimit: 30 * time.Second}, batch)
	if err != nil {
		t.Fatalf("PlanDisaggregated(preset %d): %v", preset, err)
	}
	return online.Config{
		Spec:           spec,
		PrefillPlan:    dp.Prefill,
		PrefillCluster: dp.PrefillCluster,
		DecodePlan:     dp.Decode,
		DecodeCluster:  dp.DecodeCluster,
		ChunkLen:       256,
		HandoffBW:      cluster.Eth800BW,
		QueueCapacity:  1 << 20,
	}
}

// within asserts |got−want| ≤ max(rel·|want|, abs).
func within(t *testing.T, name string, got, want, rel, abs float64) {
	t.Helper()
	tol := rel * math.Abs(want)
	if abs > tol {
		tol = abs
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s: analytic %.4f vs simulated %.4f (tolerance %.4f)", name, got, want, tol)
	}
}

// TestAnalyticMatchesSimulation is the property test behind the planner:
// across a seeded (arrival rate × fleet shape × workload) grid in the
// model's design regime (ρ ≤ ~0.75), the analytic queue-wait/TTFT/TBT
// percentiles and utilization must track the online simulator replaying
// the same Poisson trace. Tolerances reflect the model's documented
// residuals: queue-wait p95 within 25% (floor 60ms for the decode-step
// clock-quantization at near-zero waits), TTFT p95 within 25%, TBT and
// decode occupancy within 35% (the M/G/∞ occupancy approximation runs
// light as decode load grows).
func TestAnalyticMatchesSimulation(t *testing.T) {
	type scenario struct {
		name    string
		spec    *model.Spec
		preset  int
		profile func() *workload.Profile
		rates   []float64
		n       int
	}
	scenarios := []scenario{
		{
			name:   "opt13b-cluster2-sharegpt",
			spec:   model.OPT13B,
			preset: 2,
			profile: func() *workload.Profile {
				return workload.ShareGPT(stats.NewRNG(5), 64).Filter(model.OPT13B.MaxPos)
			},
			rates: []float64{0.5, 1.0, 2.0},
			n:     400,
		},
		{
			name:   "opt1b3-cluster9-cnndm",
			spec:   model.OPT1B3,
			preset: 9,
			profile: func() *workload.Profile {
				return workload.CNNDailyMail(stats.NewRNG(7), 48).Filter(model.OPT1B3.MaxPos)
			},
			rates: []float64{1.0, 3.0, 8.0},
			n:     400,
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := engineConfig(t, sc.spec, sc.preset)
			profile := sc.profile()
			for _, rate := range sc.rates {
				a, err := Analyze(cfg, profile, rate, SLO{})
				if err != nil {
					t.Fatalf("rate %.1f: Analyze: %v", rate, err)
				}
				if a.Prefill.Saturated {
					t.Fatalf("rate %.1f: unexpected saturation (rho %.2f) — grid must stay in the calibrated regime", rate, a.Prefill.Rho)
				}
				if a.Prefill.Rho > 0.80 {
					t.Fatalf("rate %.1f: rho %.2f above the calibrated regime — lower the grid rate", rate, a.Prefill.Rho)
				}
				eng, err := online.New(cfg)
				if err != nil {
					t.Fatalf("rate %.1f: online.New: %v", rate, err)
				}
				specs := online.Arrivals(stats.NewRNG(2024), profile, rate, sc.n, 0)
				m := eng.Replay(specs, 0)
				if m.Completed != int64(sc.n) {
					t.Fatalf("rate %.1f: completed %d of %d (rejected %d)", rate, m.Completed, sc.n, m.Rejected)
				}
				t.Logf("rate %.1f: rho=%.3f wait p95 %.3f/%.3f ttft p95 %.3f/%.3f tbt %.4f/%.4f busy %.3f/%.3f occ %.2f/%.2f (analytic/simulated)",
					rate, a.Prefill.Rho,
					a.Prefill.WaitP95, m.QueueWait.P95,
					a.Prefill.TTFTP95, m.TTFT.P95,
					a.Decode.TBT, m.TBT.Mean,
					a.Prefill.BusyFraction, m.PrefillBusyFraction,
					a.Decode.Occupancy, m.DecodeOccupancy)
				within(t, "queue-wait p95", a.Prefill.WaitP95, m.QueueWait.P95, 0.25, 0.06)
				within(t, "ttft p95", a.Prefill.TTFTP95, m.TTFT.P95, 0.25, 0.06)
				within(t, "tbt mean", a.Decode.TBT, m.TBT.Mean, 0.35, 0.004)
				within(t, "prefill busy fraction", a.Prefill.BusyFraction, m.PrefillBusyFraction, 0.35, 0.08)
				within(t, "decode occupancy", a.Decode.Occupancy, m.DecodeOccupancy, 0.35, 1.0)
			}
		})
	}
}

// TestSaturationFlagged drives the reference scenario past capacity:
// the analysis must flag Saturated with infinite wait quantiles, and
// the simulator must show matching distress (multi-second queue waits).
func TestSaturationFlagged(t *testing.T) {
	cfg := engineConfig(t, model.OPT13B, 2)
	profile := workload.ShareGPT(stats.NewRNG(5), 64).Filter(model.OPT13B.MaxPos)

	a, err := Analyze(cfg, profile, 8.0, SLO{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !a.Prefill.Saturated {
		t.Fatalf("rate 8.0 (rho %.2f) not flagged saturated", a.Prefill.Rho)
	}
	if !math.IsInf(a.Prefill.WaitP95, 1) || !math.IsInf(a.Prefill.TTFTP95, 1) {
		t.Errorf("saturated station should predict +Inf quantiles, got wait %.2f ttft %.2f",
			a.Prefill.WaitP95, a.Prefill.TTFTP95)
	}
	if a.SLOk() {
		t.Error("saturated analysis reported SLO ok")
	}

	eng, err := online.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := online.Arrivals(stats.NewRNG(2024), profile, 8.0, 400, 0)
	m := eng.Replay(specs, 0)
	if m.QueueWait.P95 < 5 {
		t.Errorf("simulated overload shows wait p95 %.2fs — expected multi-second distress", m.QueueWait.P95)
	}
}

// TestZeroRateAndEmptyTrace covers the degenerate corners: a zero
// arrival rate must predict zero load without solving anything, and an
// empty trace must replay to empty metrics.
func TestZeroRateAndEmptyTrace(t *testing.T) {
	cfg := engineConfig(t, model.OPT13B, 2)
	profile := workload.ShareGPT(stats.NewRNG(5), 64).Filter(model.OPT13B.MaxPos)

	a, err := Analyze(cfg, profile, 0, SLO{QueueWaitP95: 0.5, TTFTP95: 1.0})
	if err != nil {
		t.Fatalf("Analyze(rate 0): %v", err)
	}
	if a.Prefill.Rho != 0 || a.Prefill.WaitP95 != 0 || a.Prefill.TTFTP95 != 0 {
		t.Errorf("zero-rate prediction not zero: rho %.3f wait %.3f ttft %.3f",
			a.Prefill.Rho, a.Prefill.WaitP95, a.Prefill.TTFTP95)
	}
	if a.Prefill.Saturated || a.Decode.Saturated {
		t.Error("zero-rate analysis flagged saturated")
	}
	if !a.SLOk() {
		t.Errorf("zero-rate analysis violates SLO: %v", a.Violations)
	}
	if a.Decode.TBT <= 0 {
		t.Error("zero-rate decode TBT should still price a single-request step")
	}

	if _, err := Analyze(cfg, profile, -1, SLO{}); err == nil {
		t.Error("negative rate accepted")
	}

	eng, err := online.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Replay(nil, 0)
	if m.Submitted != 0 || m.Completed != 0 || m.Clock != 0 {
		t.Errorf("empty trace replayed to non-empty metrics: %+v", m)
	}
}
