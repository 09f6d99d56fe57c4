package online

import "repro/internal/stats"

// Metrics is the online tier's aggregate view: request counters by
// outcome, SLO attainment, and the per-request latency populations —
// queue wait (arrival → prefill start), TTFT (arrival → first token),
// and TBT (mean gap between a completed request's tokens).
type Metrics struct {
	Clock     float64 `json:"clock_seconds"`
	Submitted int64   `json:"submitted"`
	Completed int64   `json:"completed"`
	Expired   int64   `json:"expired"`
	Canceled  int64   `json:"canceled"`
	Rejected  int64   `json:"rejected"`
	// Queued counts arrived-but-not-yet-prefilling requests; Running
	// counts requests in prefill, handoff, or the decode batch.
	Queued  int `json:"queued"`
	Running int `json:"running"`

	DeadlineHits   int64 `json:"deadline_hits"`
	DeadlineMisses int64 `json:"deadline_misses"`

	// CompletedTokens and GoodputTPS count only tokens of requests that
	// finished successfully (goodput, not raw throughput).
	CompletedTokens int64   `json:"completed_tokens"`
	GoodputTPS      float64 `json:"goodput_tps"`

	// Handoffs decompose pool migrations by mechanism (disagg only).
	Handoffs         int64 `json:"handoffs"`
	HandoffTransfers int64 `json:"handoff_transfers"`
	HandoffReplays   int64 `json:"handoff_replays"`

	QueueWait stats.Summary `json:"queue_wait"`
	TTFT      stats.Summary `json:"ttft"`
	TBT       stats.Summary `json:"tbt"`

	// KVBudgetBytes/KVInUseBytes expose the decode pool's admission
	// currency (per-layer bytes of the tightest stage).
	KVBudgetBytes int64 `json:"kv_budget_bytes"`
	KVInUseBytes  int64 `json:"kv_in_use_bytes"`

	// PrefillBusyFraction is the fraction of wall (virtual) time the
	// prefill pool spent in service; DecodeBusyFraction likewise for the
	// decode pool; DecodeOccupancy is the time-averaged decode batch
	// size. These are the measured counterparts of the capacity
	// planner's analytic BusyFraction / Occupancy predictions.
	PrefillBusyFraction float64 `json:"prefill_busy_fraction"`
	DecodeBusyFraction  float64 `json:"decode_busy_fraction"`
	DecodeOccupancy     float64 `json:"decode_occupancy"`
}

// Metrics snapshots the aggregate state.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := Metrics{
		Clock:            e.clock,
		Submitted:        e.submitted,
		Completed:        e.completed,
		Expired:          e.expired,
		Canceled:         e.canceled,
		Rejected:         e.rejected,
		Queued:           len(e.pending) + len(e.waiting),
		Running:          len(e.prefilling) + len(e.inHandoff) + len(e.batch),
		DeadlineHits:     e.deadlineHits,
		DeadlineMisses:   e.deadlineMisses,
		CompletedTokens:  e.completedTokens,
		Handoffs:         e.handoffs,
		HandoffTransfers: e.handoffTransfers,
		HandoffReplays:   e.handoffReplays,
		QueueWait:        e.waitS.Summary(),
		TTFT:             e.ttftS.Summary(),
		TBT:              e.tbtS.Summary(),
		KVBudgetBytes:    e.kvBudget,
		KVInUseBytes:     e.kvInUse,
	}
	if e.clock > 0 {
		m.GoodputTPS = float64(e.completedTokens) / e.clock
		m.PrefillBusyFraction = e.prefillBusy / e.clock
		m.DecodeBusyFraction = e.decodeBusy / e.clock
		m.DecodeOccupancy = e.decodeTokenSeconds / e.clock
	}
	return m
}
