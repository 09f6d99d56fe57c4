package perf

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/capacity"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The capacity-planning scenario is fully fixed: model, workload seed,
// design rate, SLO, device classes, and the replay trace. The planner
// searches fleets analytically and the recommendation is validated by
// replaying the seeded trace on the recommended engine configuration,
// so every tracked number is a property of the simulation.
const (
	capModel        = "opt-13b"
	capProfileSeed  = 5
	capProfileN     = 64
	capArrivalSeed  = 2024
	capRate         = 2.0
	capRequests     = 400
	capWaitSLO      = 0.5
	capTTFTSLO      = 1.0
	capTBTSLO       = 0.05
	capMaxRho       = 0.85 // the planner's default utilization cap, spelled out
	capMaxPerClass  = 4
	capAgreementTol = 0.20 // sim queue-wait p95 must land within 20% of analytic
)

// CapacityResult is one capacity-planning measurement: the recommended
// fleet and its cost, the analytic SLO predictions, and the simulated
// percentiles from replaying the seeded trace on the recommendation.
type CapacityResult struct {
	Fleet       string  `json:"fleet"`
	CostPerHour float64 `json:"cost_per_hour"`
	Devices     int     `json:"devices"`
	// CandidatesTried/Pruned describe the search.
	CandidatesTried  int `json:"candidates_tried"`
	CandidatesPruned int `json:"candidates_pruned"`
	// Analytic predictions at the design rate.
	PrefillRho      float64 `json:"prefill_rho"`
	DecodeRho       float64 `json:"decode_rho"`
	AnaQueueWaitP95 float64 `json:"analytic_queue_wait_p95_seconds"`
	AnaTTFTP95      float64 `json:"analytic_ttft_p95_seconds"`
	AnaTBTMean      float64 `json:"analytic_tbt_mean_seconds"`
	// Simulated counterparts from the seeded replay.
	SimQueueWaitP95 float64 `json:"sim_queue_wait_p95_seconds"`
	SimTTFTP95      float64 `json:"sim_ttft_p95_seconds"`
	SimTBTMean      float64 `json:"sim_tbt_mean_seconds"`
	Completed       int64   `json:"completed"`
	Rejected        int64   `json:"rejected"`
	// WaitAgreement is |analytic−sim|/sim for the queue-wait p95 — the
	// planner's headline accuracy number.
	WaitAgreement float64 `json:"wait_agreement"`
	// DecodeConcurrency and AdmissionThreshold are the derived serving
	// limits shipped with the recommendation.
	DecodeConcurrency  int `json:"decode_concurrency"`
	AdmissionThreshold int `json:"admission_threshold"`
	// PlanSeconds is the one machine-dependent number: the fleet-search
	// wall time. Reported for context, never gated.
	PlanSeconds float64 `json:"plan_seconds"`
}

// CapacitySLO is the service level the capacity scenario sizes its
// fleet for.
var CapacitySLO = capacity.SLO{QueueWaitP95: capWaitSLO, TTFTP95: capTTFTSLO, TBTMean: capTBTSLO, MaxRho: capMaxRho}

// PlanCapacityFleet sizes the scenario's fleet: the cheapest V100/A100
// mix that serves opt-13b ShareGPT traffic at rate req/s within
// CapacitySLO. It returns the recommendation with the request profile
// the traffic draws from.
func PlanCapacityFleet(ctx context.Context, rate float64) (*capacity.Recommendation, *workload.Profile, error) {
	spec, err := model.Lookup(capModel)
	if err != nil {
		return nil, nil, err
	}
	profile := workload.ShareGPT(stats.NewRNG(capProfileSeed), capProfileN).Filter(spec.MaxPos)
	rec, err := capacity.PlanFleet(ctx, capacity.PlanInput{
		Spec:        spec,
		Profile:     profile,
		Rate:        rate,
		SLO:         CapacitySLO,
		Classes:     []gpu.DeviceClass{gpu.V100, gpu.A100},
		MaxPerClass: capMaxPerClass,
	})
	if err != nil {
		return nil, nil, err
	}
	return rec, profile, nil
}

// CapacityPlanning runs the fixed scenario: plan the min-cost fleet for
// the design rate and SLO, then replay the seeded trace on the
// recommended configuration and check the simulation agrees with the
// analytic prediction and meets the SLO.
func CapacityPlanning(ctx context.Context) (*CapacityResult, error) {
	t0 := time.Now()
	rec, profile, err := PlanCapacityFleet(ctx, capRate)
	if err != nil {
		return nil, err
	}
	planSeconds := time.Since(t0).Seconds()

	eng, err := online.New(rec.Config)
	if err != nil {
		return nil, err
	}
	specs := online.Arrivals(stats.NewRNG(capArrivalSeed), profile, capRate, capRequests, 0)
	m := eng.Replay(specs, 0)

	res := &CapacityResult{
		Fleet:              rec.Fleet.String(),
		CostPerHour:        rec.CostPerHour,
		Devices:            rec.Fleet.Devices(),
		CandidatesTried:    rec.CandidatesTried,
		CandidatesPruned:   rec.CandidatesPruned,
		PrefillRho:         rec.Analysis.Prefill.Rho,
		DecodeRho:          rec.Analysis.Decode.Rho,
		AnaQueueWaitP95:    rec.Analysis.Prefill.WaitP95,
		AnaTTFTP95:         rec.Analysis.Prefill.TTFTP95,
		AnaTBTMean:         rec.Analysis.Decode.TBT,
		SimQueueWaitP95:    m.QueueWait.P95,
		SimTTFTP95:         m.TTFT.P95,
		SimTBTMean:         m.TBT.Mean,
		Completed:          m.Completed,
		Rejected:           m.Rejected,
		DecodeConcurrency:  rec.DecodeConcurrency,
		AdmissionThreshold: rec.AdmissionThreshold,
		PlanSeconds:        planSeconds,
	}
	if m.QueueWait.P95 > 0 {
		res.WaitAgreement = math.Abs(res.AnaQueueWaitP95-res.SimQueueWaitP95) / res.SimQueueWaitP95
	}
	if res.Completed != capRequests {
		return nil, fmt.Errorf("perf: capacity replay completed %d of %d (rejected %d)",
			res.Completed, capRequests, res.Rejected)
	}
	if res.WaitAgreement > capAgreementTol {
		return nil, fmt.Errorf("perf: analytic queue-wait p95 %.3fs vs simulated %.3fs — %.0f%% apart, tolerance %.0f%%",
			res.AnaQueueWaitP95, res.SimQueueWaitP95, res.WaitAgreement*100, capAgreementTol*100)
	}
	if res.SimQueueWaitP95 > capWaitSLO || res.SimTTFTP95 > capTTFTSLO || res.SimTBTMean > capTBTSLO {
		return nil, fmt.Errorf("perf: recommended fleet misses the SLO in simulation (wait %.3f ttft %.3f tbt %.4f)",
			res.SimQueueWaitP95, res.SimTTFTP95, res.SimTBTMean)
	}
	return res, nil
}
