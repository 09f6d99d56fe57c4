// Package online is the streaming request tier: continuous
// (iteration-level) batching over the pipeline simulator's cost model,
// with optional disaggregated prefill/decode pools. Requests arrive
// with per-request SLOs (deadline, priority); an iteration scheduler
// admits them into the running decode batch and evicts them at
// token-step boundaries, instead of executing fixed offline batch
// plans. Time is virtual (seconds on a simulated clock), so the whole
// tier — arrival processes, prefill groups, KV handoffs, token steps —
// is deterministic and testable without wall clocks; the serve daemon's
// -online mode drives the same engine event-by-event.
//
// In disaggregated mode prompts prefill on a compute-rich pool at high
// precision and generations decode on a memory-bound pool at low bits
// (core.PlanDisaggregated); a finished prefill migrates by KV handoff,
// costed as the cheaper of a raw KV transfer over the inter-pool fabric
// and a token-log replay (internal/transport's deterministic rebuild).
package online

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
)

var (
	// ErrRejected marks a request the engine will never run (invalid
	// shape, exceeds the model's position budget, duplicate id).
	ErrRejected = errors.New("online: request rejected")
	// ErrQueueFull marks admission-control pushback.
	ErrQueueFull = errors.New("online: queue full")
	// ErrUnknownRequest marks lookups of ids the engine has never seen.
	ErrUnknownRequest = errors.New("online: unknown request")
)

// State is a request's lifecycle position.
type State string

const (
	StateQueued     State = "queued"
	StatePrefilling State = "prefilling"
	StateHandoff    State = "handoff"
	StateDecoding   State = "decoding"
	StateCompleted  State = "completed"
	StateExpired    State = "expired"
	StateCanceled   State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateExpired || s == StateCanceled
}

// Config wires an Engine to a model and its phase plans.
type Config struct {
	// Spec is the served model.
	Spec *model.Spec
	// PrefillPlan/PrefillCluster run the prompt phase.
	PrefillPlan    *plan.Plan
	PrefillCluster *cluster.Cluster
	// DecodePlan/DecodeCluster, when set, run the generation phase on a
	// separate pool (disaggregated mode) and finished prefills migrate
	// by KV handoff. Nil means colocated: the prefill pool decodes too,
	// prefill groups preempt decoding (stop-and-go batching), and no
	// handoff happens.
	DecodePlan    *plan.Plan
	DecodeCluster *cluster.Cluster
	// ChunkLen is the prefill chunk length (default 256).
	ChunkLen int
	// MaxBatch caps the decode batch (default 32).
	MaxBatch int
	// MaxPrefillBatch caps one prefill group (default 8).
	MaxPrefillBatch int
	// QueueCapacity bounds queued-but-not-yet-running requests
	// (default 256).
	QueueCapacity int
	// HandoffBW is the prefill→decode fabric bandwidth in bytes/s used
	// to cost raw KV transfers. 0 disables transfers: every handoff is
	// a token-log replay.
	HandoffBW float64
	// Tracer, when set, receives per-request spans on the engine's
	// virtual clock: queue wait, prefill (per request and per group), KV
	// handoff, decode steps, and one decode span per completion. The
	// engine passes explicit timestamps, so the tracer's own clock
	// function is never consulted here; wire it with
	// obs.NewVirtualTracer(engine.Clock) so wall-clock events recorded
	// elsewhere land on the same timeline.
	Tracer *obs.Tracer
}

// WithDefaults returns a copy of the config with every unset limit at
// the engine's default, and an error when the plans are incomplete. The
// copy carries the defaults even when the error is set. The engine and
// the capacity planner's analytic model both size from it.
func (c *Config) WithDefaults() (Config, error) {
	out := *c
	if out.ChunkLen <= 0 {
		out.ChunkLen = 256
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = 32
	}
	if out.MaxPrefillBatch <= 0 {
		out.MaxPrefillBatch = 8
	}
	if out.QueueCapacity <= 0 {
		out.QueueCapacity = 256
	}
	if out.Spec == nil || out.PrefillPlan == nil || out.PrefillCluster == nil {
		return out, fmt.Errorf("online: config needs a model spec and a prefill plan/cluster")
	}
	if (out.DecodePlan == nil) != (out.DecodeCluster == nil) {
		return out, fmt.Errorf("online: decode plan and cluster must be set together")
	}
	return out, nil
}

// RequestSpec is a submission.
type RequestSpec struct {
	// ID names the request; empty means the engine assigns one.
	ID string `json:"id,omitempty"`
	// PromptLen is the prompt length in tokens.
	PromptLen int `json:"prompt_len"`
	// MaxTokens is the generation budget (≥ 1; the first token comes
	// from prefill).
	MaxTokens int `json:"max_tokens"`
	// DeadlineSeconds is a relative SLO: the request must finish within
	// this many seconds of its arrival. 0 means no deadline.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Priority orders admission (higher first; FIFO within a priority).
	Priority int `json:"priority,omitempty"`
	// ArrivalSeconds is the virtual arrival time. Values in the past
	// are clamped to the current clock; the closed-loop driver pre-dates
	// a whole trace.
	ArrivalSeconds float64 `json:"arrival_seconds,omitempty"`
}

// RequestView is a snapshot of one request for clients.
type RequestView struct {
	ID              string  `json:"id"`
	State           State   `json:"state"`
	PromptLen       int     `json:"prompt_len"`
	MaxTokens       int     `json:"max_tokens"`
	Priority        int     `json:"priority,omitempty"`
	ArrivalSeconds  float64 `json:"arrival_seconds"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"` // absolute, 0 = none
	Tokens          int     `json:"tokens"`
	// TokenTimes are the virtual emission times of each token.
	TokenTimes []float64 `json:"token_times,omitempty"`
	QueueWait  float64   `json:"queue_wait_seconds"`
	TTFT       float64   `json:"ttft_seconds,omitempty"`
	TBT        float64   `json:"tbt_seconds,omitempty"`
	Finish     float64   `json:"finish_seconds,omitempty"`
	// HandoffMode is "transfer" or "replay" once the request migrated
	// pools, empty in colocated mode.
	HandoffMode string `json:"handoff_mode,omitempty"`
	Error       string `json:"error,omitempty"`
}

type request struct {
	spec     RequestSpec
	seq      int64
	state    State
	arrival  float64
	deadline float64 // absolute; 0 = none
	started  float64 // prefill start (queue wait = started − arrival)
	readyAt  float64 // decode-eligible time after handoff
	tokens   []float64
	finish   float64
	kv       int64 // per-layer KV footprint on the decode pool
	handoff  string
	cancel   bool
	errMsg   string
}

// Engine is the continuous-batching scheduler. All methods are safe for
// concurrent use; Step advances the virtual clock by one event.
type Engine struct {
	cfg Config
	tr  *obs.Tracer // nil disables span emission entirely

	mu         sync.Mutex
	clock      float64
	seq        int64
	pending    []*request // future arrivals, sorted by arrival
	waiting    []*request // arrived, awaiting a prefill slot
	prefilling []*request
	prefillEnd float64
	inHandoff  []*request
	ready      []*request // Step's scratch for handoffs due at the clock
	batch      []*request
	kvInUse    int64
	byID       map[string]*request
	watch      chan struct{} // nil while no one watches

	prices   *Prices
	kvBudget int64 // prices.KVBudget(), the decode batch's admission bound

	// metric accumulators. The latency populations are fixed-capacity
	// seeded reservoirs (stats.Reservoir), not slices: a long-running
	// daemon observes millions of requests, and both the memory held and
	// the per-scrape digest cost must stay O(reservoir), not O(total).
	// The seeds are fixed, so under the virtual clock the kept samples —
	// and every percentile a scrape reports — are deterministic.
	submitted, completed, expired, canceled, rejected int64
	completedTokens                                   int64
	deadlineHits, deadlineMisses                      int64
	handoffs, handoffTransfers, handoffReplays        int64
	ttftS, tbtS, waitS                                *stats.Reservoir
	// Per-pool busy-time integrals: prefillBusy accumulates group
	// service seconds, decodeBusy accumulates decode-step seconds, and
	// decodeTokenSeconds integrates batch-size · step-seconds (so
	// decodeTokenSeconds/clock is the mean decode occupancy).
	prefillBusy, decodeBusy, decodeTokenSeconds float64
}

// reservoirCap bounds each latency population's kept sample. Runs with
// fewer requests than this are digested exactly (the reservoir keeps
// everything until it fills), so the committed BENCH_online.json
// percentiles are unaffected by the sampling.
const reservoirCap = 4096

// New validates the config and builds an idle engine at clock 0.
func New(cfg Config) (*Engine, error) {
	p, err := NewPrices(cfg)
	if err != nil {
		return nil, err
	}
	c := p.Config()
	return &Engine{
		cfg:      c,
		tr:       c.Tracer,
		byID:     map[string]*request{},
		prices:   p,
		kvBudget: p.KVBudget(),
		ttftS:    stats.NewReservoir(reservoirCap, 0xceed1),
		tbtS:     stats.NewReservoir(reservoirCap, 0xceed2),
		waitS:    stats.NewReservoir(reservoirCap, 0xceed3),
	}, nil
}

// Clock returns the current virtual time in seconds.
func (e *Engine) Clock() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clock
}

// Disaggregated reports whether the engine runs split pools.
func (e *Engine) Disaggregated() bool { return e.prices.Disaggregated() }

// PoolDevices reports the device counts behind the engine's pools:
// prefill always, decode only in disaggregated mode (0 when the
// prefill pool decodes too).
func (e *Engine) PoolDevices() (prefill, decode int) {
	prefill = e.cfg.PrefillCluster.TotalDevices()
	if e.cfg.DecodeCluster != nil {
		decode = e.cfg.DecodeCluster.TotalDevices()
	}
	return prefill, decode
}

// Watch returns a channel closed at the next engine state change. The
// channel exists only while someone watches: Watch makes it, and the
// next change closes it and drops it, so an engine no one watches
// makes and closes none.
func (e *Engine) Watch() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.watchLocked()
}

func (e *Engine) watchLocked() <-chan struct{} {
	if e.watch == nil {
		e.watch = make(chan struct{})
	}
	return e.watch
}

func (e *Engine) notifyLocked() {
	if e.watch != nil {
		close(e.watch)
		e.watch = nil
	}
}

// Submit enqueues a request and returns its id. It fails with
// ErrRejected for shapes the model cannot serve and ErrQueueFull when
// admission control pushes back.
func (e *Engine) Submit(spec RequestSpec) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.submitLocked(spec)
}

func (e *Engine) submitLocked(spec RequestSpec) (string, error) {
	if spec.PromptLen <= 0 || spec.MaxTokens < 1 {
		e.rejected++
		return "", fmt.Errorf("%w: need prompt_len ≥ 1 and max_tokens ≥ 1 (got %d, %d)",
			ErrRejected, spec.PromptLen, spec.MaxTokens)
	}
	if spec.PromptLen > e.cfg.Spec.MaxPos || spec.MaxTokens > e.cfg.Spec.MaxPos-spec.PromptLen {
		e.rejected++
		return "", fmt.Errorf("%w: prompt %d + max_tokens %d exceeds model positions %d",
			ErrRejected, spec.PromptLen, spec.MaxTokens, e.cfg.Spec.MaxPos)
	}
	if len(e.pending)+len(e.waiting) >= e.cfg.QueueCapacity {
		e.rejected++
		return "", fmt.Errorf("%w: %d requests queued", ErrQueueFull, len(e.pending)+len(e.waiting))
	}
	e.seq++
	if spec.ID == "" {
		spec.ID = "r" + strconv.FormatInt(e.seq, 10)
	}
	if _, dup := e.byID[spec.ID]; dup {
		e.rejected++
		return "", fmt.Errorf("%w: duplicate id %q", ErrRejected, spec.ID)
	}
	arrival := spec.ArrivalSeconds
	if arrival < e.clock {
		arrival = e.clock
	}
	r := &request{spec: spec, seq: e.seq, state: StateQueued, arrival: arrival,
		kv: e.prices.RequestKV(spec.PromptLen, spec.MaxTokens)}
	if spec.DeadlineSeconds > 0 {
		r.deadline = arrival + spec.DeadlineSeconds
	}
	e.byID[spec.ID] = r
	e.submitted++
	if arrival <= e.clock {
		e.waiting = append(e.waiting, r)
	} else {
		// After every pending arrival at or before this one: the order
		// a stable sort by arrival gives.
		k := sort.Search(len(e.pending), func(i int) bool { return e.pending[i].arrival > arrival })
		e.pending = slices.Insert(e.pending, k, r)
	}
	e.notifyLocked()
	return spec.ID, nil
}

// Cancel marks a request for removal; running requests leave the batch
// at the next token-step boundary. Cancelling a finished request is a
// no-op.
func (e *Engine) Cancel(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRequest, id)
	}
	if r.state.Terminal() {
		return nil
	}
	r.cancel = true
	e.notifyLocked()
	return nil
}

// Status returns a snapshot of one request.
func (e *Engine) Status(id string) (RequestView, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.byID[id]
	if !ok {
		return RequestView{}, fmt.Errorf("%w: %q", ErrUnknownRequest, id)
	}
	return e.viewLocked(r), nil
}

// List snapshots every known request, submission order.
func (e *Engine) List() []RequestView {
	e.mu.Lock()
	defer e.mu.Unlock()
	all := make([]*request, 0, len(e.byID))
	for _, r := range e.byID {
		all = append(all, r)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]RequestView, len(all))
	for i, r := range all {
		out[i] = e.viewLocked(r)
	}
	return out
}

func (e *Engine) viewLocked(r *request) RequestView {
	v := RequestView{
		ID:              r.spec.ID,
		State:           r.state,
		PromptLen:       r.spec.PromptLen,
		MaxTokens:       r.spec.MaxTokens,
		Priority:        r.spec.Priority,
		ArrivalSeconds:  r.arrival,
		DeadlineSeconds: r.deadline,
		Tokens:          len(r.tokens),
		TokenTimes:      append([]float64(nil), r.tokens...),
		HandoffMode:     r.handoff,
		Error:           r.errMsg,
	}
	if r.started > 0 || r.state != StateQueued {
		v.QueueWait = r.started - r.arrival
	}
	if len(r.tokens) > 0 {
		v.TTFT = r.tokens[0] - r.arrival
	}
	if r.state.Terminal() {
		v.Finish = r.finish
		if n := len(r.tokens); n > 1 {
			v.TBT = (r.tokens[n-1] - r.tokens[0]) / float64(n-1)
		}
	}
	return v
}

// finishLocked retires a request.
func (e *Engine) finishLocked(r *request, st State, t float64) {
	r.state = st
	r.finish = t
	if e.tr != nil {
		if st == StateCompleted && len(r.tokens) > 1 {
			e.tr.Span("req:"+r.spec.ID, "decode", r.tokens[0], t-r.tokens[0],
				map[string]any{"tokens": len(r.tokens)})
		} else if st != StateCompleted {
			e.tr.Instant("req:"+r.spec.ID, string(st), t, nil)
		}
	}
	switch st {
	case StateCompleted:
		e.completed++
		e.completedTokens += int64(len(r.tokens))
		if n := len(r.tokens); n > 1 {
			e.tbtS.Add((r.tokens[n-1] - r.tokens[0]) / float64(n-1))
		}
		if r.deadline > 0 {
			if t <= r.deadline+1e-12 {
				e.deadlineHits++
			} else {
				e.deadlineMisses++
			}
		}
	case StateExpired:
		e.expired++
		if r.deadline > 0 {
			e.deadlineMisses++
		}
	case StateCanceled:
		e.canceled++
	}
}

// byAdmission orders requests for scheduling: priority desc, then
// arrival, then submission order. Submission order is unique, so the
// order is total and an unstable sort gives the stable one.
func byAdmission(rs []*request) {
	slices.SortFunc(rs, func(a, b *request) int {
		if c := cmp.Compare(b.spec.Priority, a.spec.Priority); c != 0 {
			return c
		}
		if c := cmp.Compare(a.arrival, b.arrival); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// Step advances the engine by one event on the virtual clock: harvest
// finished prefills and handoffs, admit and evict at the token-step
// boundary, then either run one decode step or jump to the next event.
// It returns false when the engine is idle (no queued, running, or
// future work).
func (e *Engine) Step() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stepLocked()
}

func (e *Engine) stepLocked() bool {
	defer e.notifyLocked()

	// 1. Promote arrivals due at or before the clock.
	for len(e.pending) > 0 && e.pending[0].arrival <= e.clock {
		e.waiting = append(e.waiting, e.pending[0])
		e.pending = e.pending[1:]
	}

	// 2. Harvest a finished prefill group: the group's requests got
	// their first token at prefillEnd and move to handoff (disagg) or
	// straight to decode-eligible (colocated).
	if len(e.prefilling) > 0 && e.clock >= e.prefillEnd-1e-12 {
		for _, r := range e.prefilling {
			// Room for every token time, so decode steps append
			// without growing the slice.
			r.tokens = append(make([]float64, 0, r.spec.MaxTokens), e.prefillEnd)
			e.ttftS.Add(e.prefillEnd - r.arrival)
			switch {
			case r.cancel:
				e.finishLocked(r, StateCanceled, e.prefillEnd)
			case r.spec.MaxTokens == 1:
				e.finishLocked(r, StateCompleted, e.prefillEnd)
			case e.prices.Disaggregated():
				delay, mode := e.prices.Handoff(r.spec.PromptLen, r.spec.MaxTokens)
				e.handoffs++
				if mode == "transfer" {
					e.handoffTransfers++
				} else {
					e.handoffReplays++
				}
				r.handoff = mode
				r.state = StateHandoff
				r.readyAt = e.prefillEnd + delay
				e.inHandoff = append(e.inHandoff, r)
				if e.tr != nil {
					e.tr.Span("req:"+r.spec.ID, "handoff", e.prefillEnd, delay, map[string]any{"mode": mode})
				}
			default:
				r.state = StateHandoff
				r.readyAt = e.prefillEnd
				e.inHandoff = append(e.inHandoff, r)
			}
		}
		clear(e.prefilling)
		e.prefilling = e.prefilling[:0]
	}

	// 3. Start a prefill group if the prefill pool is idle: highest
	// priority first, dropping requests that expired or were cancelled
	// while queued.
	if len(e.prefilling) == 0 && len(e.waiting) > 0 {
		byAdmission(e.waiting)
		keep := e.waiting[:0]
		group := e.prefilling[:0]
		for _, r := range e.waiting {
			switch {
			case r.cancel:
				e.finishLocked(r, StateCanceled, e.clock)
			case r.deadline > 0 && e.clock > r.deadline:
				r.errMsg = "deadline passed while queued"
				e.finishLocked(r, StateExpired, e.clock)
			case len(group) < e.cfg.MaxPrefillBatch:
				group = append(group, r)
			default:
				keep = append(keep, r)
			}
		}
		clear(e.waiting[len(keep):])
		e.waiting = keep
		if len(group) > 0 {
			maxChunks := 1
			for _, r := range group {
				if c := e.prices.Chunks(r.spec.PromptLen); c > maxChunks {
					maxChunks = c
				}
			}
			sec, err := e.prices.Prefill(len(group), maxChunks)
			if err != nil {
				for _, r := range group {
					r.errMsg = err.Error()
					e.finishLocked(r, StateExpired, e.clock)
				}
				clear(group)
			} else {
				for _, r := range group {
					r.state = StatePrefilling
					r.started = e.clock
					e.waitS.Add(e.clock - r.arrival)
					if e.tr != nil {
						e.tr.Span("req:"+r.spec.ID, "queue-wait", r.arrival, e.clock-r.arrival, nil)
						e.tr.Span("req:"+r.spec.ID, "prefill", e.clock, sec, nil)
					}
				}
				e.prefilling = group
				e.prefillEnd = e.clock + sec
				e.prefillBusy += sec
				if e.tr != nil {
					e.tr.Span("prefill", fmt.Sprintf("group n=%d", len(group)), e.clock, sec,
						map[string]any{"requests": len(group), "chunks": maxChunks})
				}
			}
		}
	}

	// 4–5. Admit handoff-complete requests into the decode batch within
	// the KV budget and batch cap.
	ready, moving := e.ready[:0], e.inHandoff[:0]
	for _, r := range e.inHandoff {
		if r.readyAt <= e.clock+1e-12 {
			ready = append(ready, r)
		} else {
			moving = append(moving, r)
		}
	}
	clear(e.inHandoff[len(moving):])
	e.inHandoff = moving
	byAdmission(ready)
	for _, r := range ready {
		switch {
		case r.cancel:
			e.finishLocked(r, StateCanceled, e.clock)
		case r.deadline > 0 && e.clock > r.deadline:
			r.errMsg = "deadline passed during handoff"
			e.finishLocked(r, StateExpired, e.clock)
		case len(e.batch) < e.cfg.MaxBatch && e.kvInUse+r.kv <= e.kvBudget:
			r.state = StateDecoding
			e.kvInUse += r.kv
			e.batch = append(e.batch, r)
		case len(e.batch) == 0 && r.kv > e.kvBudget:
			// Could never fit even an empty pool: fail rather than wedge.
			r.errMsg = "KV footprint exceeds decode pool budget"
			e.finishLocked(r, StateExpired, e.clock)
		default:
			r.readyAt = e.clock // retry next boundary
			e.inHandoff = append(e.inHandoff, r)
		}
	}
	clear(ready)
	e.ready = ready[:0]

	// 6. Evict at the boundary: cancellations and missed deadlines.
	if len(e.batch) > 0 {
		keep := e.batch[:0]
		for _, r := range e.batch {
			switch {
			case r.cancel:
				e.kvInUse -= r.kv
				e.finishLocked(r, StateCanceled, e.clock)
			case r.deadline > 0 && e.clock > r.deadline:
				e.kvInUse -= r.kv
				r.errMsg = "deadline passed mid-decode"
				e.finishLocked(r, StateExpired, e.clock)
			default:
				keep = append(keep, r)
			}
		}
		clear(e.batch[len(keep):])
		e.batch = keep
	}

	// 7. Run one decode step, or jump the clock to the next event. In
	// colocated mode an in-flight prefill group owns the pool, so
	// decoding waits for it.
	canDecode := len(e.batch) > 0 && (e.prices.Disaggregated() || len(e.prefilling) == 0)
	if canDecode {
		ctx := 0
		for _, r := range e.batch {
			if c := r.spec.PromptLen + len(r.tokens); c > ctx {
				ctx = c
			}
		}
		step := e.prices.DecodeStep(len(e.batch), ctx)
		if e.tr != nil {
			e.tr.Span("decode", "step", e.clock, step, map[string]any{"batch": len(e.batch), "ctx": ctx})
		}
		e.clock += step
		e.decodeBusy += step
		e.decodeTokenSeconds += step * float64(len(e.batch))
		keep := e.batch[:0]
		for _, r := range e.batch {
			r.tokens = append(r.tokens, e.clock)
			if len(r.tokens) >= r.spec.MaxTokens {
				e.kvInUse -= r.kv
				e.finishLocked(r, StateCompleted, e.clock)
			} else {
				keep = append(keep, r)
			}
		}
		clear(e.batch[len(keep):])
		e.batch = keep
		return true
	}
	next := -1.0
	consider := func(t float64) {
		if t > e.clock && (next < 0 || t < next) {
			next = t
		}
	}
	if len(e.prefilling) > 0 {
		consider(e.prefillEnd)
	}
	for _, r := range e.inHandoff {
		consider(r.readyAt)
	}
	if len(e.pending) > 0 {
		consider(e.pending[0].arrival)
	}
	if next < 0 {
		// Nothing moves on its own. Work still parked (a full batch, a
		// kv-blocked handoff) without a driving event means idle too.
		return false
	}
	e.clock = next
	return true
}

// RunToCompletion steps until the engine drains and returns the final
// metrics — the closed-loop driver's exit path.
func (e *Engine) RunToCompletion() Metrics {
	for e.Step() {
	}
	return e.Metrics()
}
