package perf

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The online-serving scenario is fully fixed: model, cluster preset,
// planner bits, arrival seed/rate/count, and SLO. The engine runs on a
// virtual clock, so every tracked quantity below is a property of the
// simulation, not of the machine measuring it — snapshots taken
// anywhere are comparable (modulo floating-point, hence the tolerance
// gates in Snapshots rather than exact equality).
const (
	onlineModel       = "opt-13b"
	onlinePreset      = 2
	onlineProfileSeed = 5
	onlineProfileN    = 64
	onlineArrivalSeed = 2024
	onlineRate        = 4.0
	onlineRequests    = 40
	onlineSLO         = 20.0
)

// OnlineResult is one closed-loop online-serving measurement under the
// fixed seeded scenario: disaggregated prefill/decode pools on the
// paper's heterogeneous preset, Poisson arrivals with a per-request
// SLO, continuous batching to completion.
type OnlineResult struct {
	Requests  int   `json:"requests"`
	Completed int64 `json:"completed"`
	Expired   int64 `json:"expired"`
	Rejected  int64 `json:"rejected"`
	// DeadlineHitRate is hits/(hits+misses) — SLO attainment.
	DeadlineHitRate float64 `json:"deadline_hit_rate"`
	// TTFT/TBT/queue-wait are virtual-clock seconds.
	TTFTP50      float64 `json:"ttft_p50_seconds"`
	TTFTP95      float64 `json:"ttft_p95_seconds"`
	TBTP50       float64 `json:"tbt_p50_seconds"`
	QueueWaitP95 float64 `json:"queue_wait_p95_seconds"`
	// GoodputTPS counts only tokens of requests that completed.
	GoodputTPS float64 `json:"goodput_tps"`
	// Handoffs counts prefill→decode pool migrations; MakespanSeconds is
	// the virtual clock when the last request finished.
	Handoffs        int64   `json:"handoffs"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	// PlanSeconds is the one machine-dependent number: how long the
	// disaggregated planner took. Reported for context, never gated.
	PlanSeconds float64 `json:"plan_seconds"`
}

// OnlineServing plans disaggregated prefill/decode pools for the fixed
// scenario, replays the seeded arrival trace through the continuous
// batching engine to completion, and distills the tracked SLO
// quantities.
func OnlineServing(ctx context.Context) (*OnlineResult, error) {
	spec, err := model.Lookup(onlineModel)
	if err != nil {
		return nil, err
	}
	clu, err := cluster.Preset(onlinePreset)
	if err != nil {
		return nil, err
	}
	bits := core.CandidateBits
	ind := core.ProfileIndicator(spec, bits, quant.Deterministic)
	batch := workload.Batch{Size: 16, ChunkLen: 256, Chunks: 1, GenTokens: 32}
	t0 := time.Now()
	dp, err := core.PlanDisaggregated(ctx, spec, clu, ind,
		core.Options{Bits: bits, TimeLimit: 30 * time.Second}, batch)
	if err != nil {
		return nil, err
	}
	planSeconds := time.Since(t0).Seconds()

	eng, err := online.New(online.Config{
		Spec:           spec,
		PrefillPlan:    dp.Prefill,
		PrefillCluster: dp.PrefillCluster,
		DecodePlan:     dp.Decode,
		DecodeCluster:  dp.DecodeCluster,
		ChunkLen:       256,
		HandoffBW:      cluster.Eth800BW,
	})
	if err != nil {
		return nil, err
	}
	profile := workload.ShareGPT(stats.NewRNG(onlineProfileSeed), onlineProfileN).Filter(spec.MaxPos)
	specs := online.Arrivals(stats.NewRNG(onlineArrivalSeed), profile, onlineRate, onlineRequests, onlineSLO)
	eng.SubmitAll(specs)
	m := eng.RunToCompletion()

	res := &OnlineResult{
		Requests:        onlineRequests,
		Completed:       m.Completed,
		Expired:         m.Expired,
		Rejected:        m.Rejected,
		TTFTP50:         m.TTFT.P50,
		TTFTP95:         m.TTFT.P95,
		TBTP50:          m.TBT.P50,
		QueueWaitP95:    m.QueueWait.P95,
		GoodputTPS:      m.GoodputTPS,
		Handoffs:        m.Handoffs,
		MakespanSeconds: m.Clock,
		PlanSeconds:     planSeconds,
	}
	if n := m.DeadlineHits + m.DeadlineMisses; n > 0 {
		res.DeadlineHitRate = float64(m.DeadlineHits) / float64(n)
	}
	if res.Completed == 0 {
		return nil, fmt.Errorf("perf: online scenario completed no requests (%d expired, %d rejected)",
			res.Expired, res.Rejected)
	}
	if res.Handoffs == 0 {
		return nil, fmt.Errorf("perf: online scenario is disaggregated but recorded no KV handoffs")
	}
	return res, nil
}
