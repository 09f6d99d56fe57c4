package capacity

import (
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestDriftDetectorReplay replays a deterministic arrival stream and
// checks the detector produces a usable verdict with positive analytic
// predictions, publishes them to the registry, and counts every
// digested request.
func TestDriftDetectorReplay(t *testing.T) {
	cfg := engineConfig(t, model.OPT13B, 2)
	eng, err := online.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profile := workload.ShareGPT(stats.NewRNG(7), 64).Filter(cfg.Spec.MaxPos)
	specs := online.Arrivals(stats.NewRNG(2024), profile, 4.0, 400, 0)
	m := eng.Replay(specs, 0)

	det := NewDriftDetector(cfg, "online-prefill", 0, 0)
	reg := obs.NewRegistry()
	det.Instrument(reg)
	rep := det.Observe(eng.List(), m)
	if rep == nil {
		t.Fatal("nil drift report")
	}
	if rep.Verdict == "" || rep.Verdict == "insufficient-data" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Observations != m.TTFT.Count || rep.Observations < minDriftObservations {
		t.Fatalf("observations %d, engine digested %d", rep.Observations, m.TTFT.Count)
	}
	if rep.Rate <= 0 {
		t.Fatalf("measured rate = %f", rep.Rate)
	}
	// The analytic side must have solved: saturated stations report no
	// predictions, everything else predicts positive waits.
	if rep.Verdict != "saturated" {
		if rep.PredictedWaitP95 <= 0 || rep.PredictedTTFTP95 <= 0 {
			t.Fatalf("analytic predictions missing: %+v", rep)
		}
		if rep.ObservedTTFTP95 <= 0 {
			t.Fatalf("observed TTFT p95 = %f", rep.ObservedTTFTP95)
		}
	}

	// A config that leaves ChunkLen unset gets the engine's default
	// (256, as this config sets it), so its detector judges the same
	// replay alike instead of failing to solve.
	zero := cfg
	zero.ChunkLen = 0
	rep0 := NewDriftDetector(zero, "online-prefill", 0, 0).Observe(eng.List(), m)
	if rep0.Err != "" || rep0.Verdict != rep.Verdict || rep0.PredictedTTFTP95 != rep.PredictedTTFTP95 {
		t.Fatalf("zero ChunkLen report = %+v, want %+v", rep0, rep)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`capacity_drift_verdict{pool="online-prefill"}`,
		`capacity_drift_observations{pool="online-prefill"} 400`,
		`capacity_drift_max_abs_error{pool="online-prefill"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestDriftDetectorInsufficientData: with no completed traffic the
// detector refuses to judge rather than comparing noise.
func TestDriftDetectorInsufficientData(t *testing.T) {
	cfg := engineConfig(t, model.OPT13B, 2)
	det := NewDriftDetector(cfg, "p", 0, 0)
	rep := det.Observe(nil, online.Metrics{})
	if rep == nil || rep.Verdict != "insufficient-data" {
		t.Fatalf("report = %+v", rep)
	}
}

// TestRelErr pins the signed relative-error helper the verdict
// thresholds are built on, including the zero-prediction sign clamp.
func TestRelErr(t *testing.T) {
	cases := []struct{ obs, pred, want float64 }{
		{1.2, 1.0, 0.2},
		{0.8, 1.0, -0.2},
		{10, 1, 9},
		{0, 1, -1},
		{1, 0, 1}, // no prediction, observed signal → unit error
		{0, 0, 0}, // no prediction, no signal
		{0.5, 0.5, 0},
	}
	for _, c := range cases {
		if got := relErr(c.obs, c.pred); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("relErr(%f, %f) = %f, want %f", c.obs, c.pred, got, c.want)
		}
	}
}
