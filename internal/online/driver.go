package online

import (
	"context"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Arrivals draws n request specs as a seeded Poisson process: Exp(rate)
// interarrival gaps, prompt and output lengths sampled from the
// workload profile. The same seed always yields the same trace, so a
// closed-loop run over these specs is fully deterministic — the
// foundation of the online benchmarks and e2e tests.
func Arrivals(rng *stats.RNG, p *workload.Profile, rate float64, n int, slo float64) []RequestSpec {
	specs := make([]RequestSpec, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.Exp(rate)
		req := p.Requests[rng.Intn(len(p.Requests))]
		maxTok := req.OutputLen
		if maxTok < 1 {
			maxTok = 1
		}
		specs = append(specs, RequestSpec{
			PromptLen:       req.PromptLen,
			MaxTokens:       maxTok,
			DeadlineSeconds: slo,
			ArrivalSeconds:  t,
		})
	}
	return specs
}

// SubmitAll feeds a pre-drawn trace into the engine, returning the ids
// in submission order. Rejected submissions get an empty id slot.
func (e *Engine) SubmitAll(specs []RequestSpec) []string {
	ids := make([]string, len(specs))
	for i, s := range specs {
		id, err := e.Submit(s)
		if err != nil {
			continue
		}
		ids[i] = id
	}
	return ids
}

// Replay drives the engine over a pre-drawn trace with just-in-time
// submission: at most window future arrivals are in flight at any
// moment, so QueueCapacity gates the actual backlog the way it would in
// a live daemon — not the entire remaining trace, as SubmitAll does.
// Specs must be sorted by ArrivalSeconds (Arrivals emits them sorted).
// It returns the final metrics after the engine drains; rejected
// submissions surface in Metrics.Rejected. Each iteration holds the
// engine lock once, so Status and List interleave with a replay.
func (e *Engine) Replay(specs []RequestSpec, window int) Metrics {
	if window <= 0 {
		window = e.cfg.MaxPrefillBatch
	}
	if window > e.cfg.QueueCapacity/2 && e.cfg.QueueCapacity >= 2 {
		window = e.cfg.QueueCapacity / 2
	}
	for i, more := 0, true; more; {
		i, more = e.replayStep(specs, i, window)
	}
	return e.Metrics()
}

// replayStep runs one Replay iteration under the engine lock from
// specs[i:]: submit, step, and report the next unsubmitted spec and
// whether anything is left to do.
func (e *Engine) replayStep(specs []RequestSpec, i, window int) (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Arrivals that are due get submitted unconditionally: the engine
	// admits or sheds them exactly as a live daemon would.
	for i < len(specs) && specs[i].ArrivalSeconds <= e.clock {
		e.submitLocked(specs[i])
		i++
	}
	// Pre-stage a bounded look-ahead of future arrivals — enough that
	// clock jumps land on them, never enough to make admission control
	// shed load that has not arrived yet.
	for i < len(specs) && e.futureRoomLocked(window) {
		e.submitLocked(specs[i])
		i++
	}
	if e.stepLocked() {
		return i, true
	}
	if i >= len(specs) {
		return i, false
	}
	// Idle with trace left: feed the next arrival so the clock can jump
	// to it.
	e.submitLocked(specs[i])
	return i + 1, true
}

// futureRoomLocked reports whether another future arrival can be
// pre-staged: fewer than window arrivals already in flight and
// admission-control headroom to spare.
func (e *Engine) futureRoomLocked(window int) bool {
	return len(e.pending) < window && len(e.pending)+len(e.waiting) < e.cfg.QueueCapacity
}

// Loop drives the engine until ctx is cancelled: it steps while events
// are due and blocks on the engine's watch channel while idle. This is
// the serve daemon's live mode — submissions wake the loop, which runs
// the virtual clock forward as fast as the simulation allows.
func (e *Engine) Loop(ctx context.Context) {
	for ctx.Err() == nil {
		if idle := e.stepOrWatch(); idle != nil {
			select {
			case <-ctx.Done():
			case <-idle:
			}
		}
	}
}

// stepOrWatch runs one Step and returns nil if it did something. An idle
// engine returns a watch channel taken under the same lock, after the
// step's own change notification, so only a later change — a Submit or
// a Cancel — closes it.
func (e *Engine) stepOrWatch() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stepLocked() {
		return nil
	}
	return e.watchLocked()
}
