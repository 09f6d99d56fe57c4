// Package serve is the offline batch-serving control plane over the
// SplitQuant planner: a long-running daemon that accepts jobs (model +
// workload + request volume) over an HTTP/JSON API, admits only jobs
// whose memory lower bound fits some resource pool, and queues them by
// priority and deadline. It prices each job on every pool through a
// persistent core.PlanCache keyed by core.PlanKey — which answers a
// problem it already solved and runs the core.Assigner otherwise —
// places the job on the pool where it finishes earliest, and executes
// its batches there on the pipeline simulator. It reports per-job
// progress and survives restarts warm (the plan cache persists under a
// state dir).
package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/capacity"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/maintenance"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/scheduler"
	"repro/internal/stats"
)

// Sentinel errors. Submission failures wrap one of these so callers can
// classify them (and the HTTP layer can pick status codes).
var (
	// ErrRejected marks submissions that failed admission control.
	ErrRejected = errors.New("serve: job rejected at admission")
	// ErrInfeasible marks admission rejections whose cause is the memory
	// lower bound (the job cannot fit any pool at any bitwidth).
	ErrInfeasible = core.ErrInfeasible
	// ErrDraining is returned for submissions while the server drains.
	ErrDraining = errors.New("serve: server is draining")
	// ErrQueueFull is returned when the job queue is at capacity.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrUnknownJob is returned for lookups of nonexistent job IDs.
	ErrUnknownJob = errors.New("serve: unknown job")
)

// cacheFileName is the plan-cache snapshot inside Config.StateDir.
const cacheFileName = "plancache.json"

// Config configures a Server.
type Config struct {
	// Resources are the harvested pools jobs execute on (≥ 1 required).
	Resources []scheduler.Resource
	// Workers bounds executor concurrency; 0 or anything above the pool
	// count defaults to one worker per resource. Workers are not pinned
	// to pools: each takes the next queued job, placement picks the
	// job's pool, and at most one job executes per pool at a time.
	Workers int
	// StateDir, when non-empty, holds the persisted plan cache; the
	// server restores it in New and snapshots it on Shutdown.
	StateDir string
	// CacheCapacity bounds the plan cache and the memo of synthesized
	// job batches (default 128 entries each).
	CacheCapacity int
	// QueueCapacity bounds queued-but-not-started jobs (default 1024).
	QueueCapacity int
	// Planner is the base planner configuration applied to every job
	// (method defaults to the heuristic, θ to 1; per-job spec overrides
	// take precedence).
	Planner core.Options
	// DrainTimeout, when > 0, bounds how long Shutdown waits for
	// in-flight executor work. A wedged batch (a stuck BatchHook, a
	// hung solver) past the deadline no longer holds the drain hostage:
	// every in-flight job is checkpointed at its completed batch count
	// and requeued (the preemption checkpoint path), the executor
	// contexts are canceled, and Shutdown proceeds to persist state.
	// 0 preserves the old behavior: wait as long as Shutdown's ctx
	// allows.
	DrainTimeout time.Duration
	// Maintenance optionally overrides the rolling-maintenance hooks
	// behind /v1/maintenance. Nil fields get daemon defaults: pool
	// utilization from executor busy fractions, migration by counting
	// the online tier's in-flight requests (the continuous batch
	// re-places them at the next step boundary), and a fleet-invariant
	// health check.
	Maintenance maintenance.Hooks
	// BatchHook, when non-nil, runs synchronously after every simulated
	// batch with the job ID, completed batch count, and total. It exists
	// for deterministic fault injection: chaos tests preempt devices from
	// the hook so the pool change lands exactly on a batch boundary. It
	// must be fast (it blocks the executor) and must not call back into
	// the server's job API.
	BatchHook func(jobID string, done, total int)
	// Online, when non-nil, mounts the streaming request tier
	// (/v1/requests endpoints) on this daemon and folds its per-request
	// SLO metrics into /v1/metrics. The caller owns the engine's event
	// loop (typically online.Engine.Loop in a goroutine).
	Online *online.Engine
	// Tracer, when non-nil, records per-job spans (queue wait, plan,
	// each executor batch, preemption/replan events) for Chrome-trace /
	// NDJSON export. Nil disables tracing at the cost of one branch.
	Tracer *obs.Tracer
	// Drift, when non-nil (and Online is wired), compares the capacity
	// model's predicted wait/TTFT percentiles against the engine's
	// observations on every metrics scrape and surfaces the error in
	// /v1/metrics and the capacity_drift_* gauge family.
	Drift *capacity.DriftDetector
	// Pprof mounts net/http/pprof under /debug/pprof/ and registers Go
	// runtime gauges (goroutines, GC pause, heap) on the registry.
	Pprof bool
}

// Metrics is the server counter snapshot served at /v1/metrics.
type Metrics struct {
	Submitted int `json:"submitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	// QueueDepth and Running describe the instantaneous pipeline.
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	// CacheHits / CacheMisses / CacheEntries describe the plan cache
	// (hit and miss counts are per process; entries survive restarts).
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	// PlanSeconds and SimSeconds accumulate planner wall-clock and
	// simulated execution time across completed work.
	PlanSeconds float64 `json:"plan_seconds"`
	SimSeconds  float64 `json:"sim_seconds"`
	// Preemptions counts fleet preemption events applied to this
	// server's pools; Replans counts the mid-job re-plans executors
	// performed after a pool changed under a running job.
	Preemptions uint64 `json:"preemptions"`
	Replans     int    `json:"replans"`
	Draining    bool   `json:"draining"`
	// JobQueueWait and JobExecLatency digest offline job latencies:
	// submission → execution start, and execution start → terminal
	// state (completed jobs only for exec latency).
	JobQueueWait   stats.Summary `json:"job_queue_wait"`
	JobExecLatency stats.Summary `json:"job_exec_latency"`
	// Online carries the streaming tier's per-request SLO metrics when
	// Config.Online is wired (absent otherwise).
	Online *online.Metrics `json:"online,omitempty"`
	// Capacity reports per-pool utilization ρ (executor busy fraction of
	// wall-clock since start for offline pools; engine busy fractions for
	// the streaming tier's pools) against the capacity advisor's
	// recommended device count at the default target utilization, so a
	// scrape shows at a glance which pools are over- or under-provisioned.
	Capacity []capacity.PoolAdvice `json:"capacity,omitempty"`
	// Drift reports the live analytic-vs-observed comparison when
	// Config.Drift is wired alongside the online tier.
	Drift *capacity.DriftReport `json:"drift,omitempty"`
}

// Server is the control-plane instance. Create with New, optionally
// expose over HTTP with Start, stop with Shutdown.
type Server struct {
	cfg   Config
	cache *core.PlanCache
	// batches memoizes each job shape's synthesized batch, bounded like
	// the plan cache (Config.CacheCapacity).
	batches *batchMemo
	fleet   *scheduler.FleetState

	// tel holds the registry-backed counters (the source of truth both
	// /v1/metrics and /metrics read) and the optional tracer.
	tel *telemetry

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobQueue
	jobs     map[string]*job
	order    []string             // job IDs in submission order, for List
	pools    map[string]*poolLoad // pool name → executor claim record
	seq      int
	draining bool
	stopping bool
	// waitS / execS hold per-job queue-wait and execution-latency
	// samples (seconds) for the /v1/metrics percentile digests — seeded
	// fixed-capacity reservoirs, so a long-running daemon's metrics
	// scrape stays O(reservoir) in both memory and time.
	waitS *stats.Reservoir
	execS *stats.Reservoir
	// clk is the server clock; started, read from it at construction,
	// anchors the utilization window.
	clk     clock.Clock
	started time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workers    sync.WaitGroup

	persistOnce sync.Once
	persistErr  error

	// maint is the current (or most recent) maintenance operation;
	// guarded by maintMu, not s.mu, because its hooks read pool state
	// under s.mu.
	maintMu sync.Mutex
	maint   *maintenance.Orchestrator

	httpMu  sync.Mutex
	httpSrv *http.Server
	lis     net.Listener
}

// New validates the configuration, restores the plan cache from
// StateDir (when set), and starts the executor workers. The server
// accepts in-process submissions immediately; call Start to expose the
// HTTP API.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg, clock.Real)
	if err != nil {
		return nil, err
	}
	for w := 0; w < s.cfg.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// newServer is New without the executor workers, on clock clk:
// submitted jobs stay queued until someone calls nextJob.
func newServer(cfg Config, clk clock.Clock) (*Server, error) {
	if len(cfg.Resources) == 0 {
		return nil, fmt.Errorf("serve: no resources configured")
	}
	seen := map[string]bool{}
	for i := range cfg.Resources {
		if err := cfg.Resources[i].Validate(); err != nil {
			return nil, err
		}
		if seen[cfg.Resources[i].Name] {
			return nil, fmt.Errorf("serve: duplicate resource %s", cfg.Resources[i].Name)
		}
		seen[cfg.Resources[i].Name] = true
	}
	if cfg.Planner.Method == "" {
		cfg.Planner.Method = core.MethodHeuristic
	}
	if !core.ValidMethod(cfg.Planner.Method) {
		return nil, fmt.Errorf("serve: %w %q", core.ErrUnknownMethod, cfg.Planner.Method)
	}
	if cfg.Planner.Theta == 0 {
		cfg.Planner.Theta = 1
	}
	if len(cfg.Planner.Bits) == 0 {
		cfg.Planner.Bits = core.CandidateBits
	}
	if cfg.Planner.BitKV == 0 {
		cfg.Planner.BitKV = 16
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1024
	}
	if cfg.Workers <= 0 || cfg.Workers > len(cfg.Resources) {
		cfg.Workers = len(cfg.Resources)
	}
	s := &Server{
		cfg:     cfg,
		cache:   core.NewPlanCache(cfg.CacheCapacity),
		fleet:   scheduler.NewFleetState(cfg.Resources),
		jobs:    map[string]*job{},
		pools:   make(map[string]*poolLoad, len(cfg.Resources)),
		clk:     clk,
		started: clk.Now(),
	}
	for i := range cfg.Resources {
		s.pools[cfg.Resources[i].Name] = &poolLoad{}
	}
	s.batches = newBatchMemo(s.cache.Capacity())
	s.waitS = stats.NewReservoir(4096, 0x5e41)
	s.execS = stats.NewReservoir(4096, 0x5e42)
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	reg := obs.NewRegistry()
	s.instrument(reg)
	s.fleet.Instrument(reg)
	if cfg.Online != nil {
		cfg.Online.Instrument(reg)
	}
	if cfg.Drift != nil {
		cfg.Drift.Instrument(reg)
	}
	if cfg.Pprof {
		obs.InstrumentRuntime(reg)
	}
	if cfg.StateDir != "" {
		if err := s.cache.Load(s.cachePath()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Server) cachePath() string { return filepath.Join(s.cfg.StateDir, cacheFileName) }

// reject counts one rejected submission and passes the error through;
// every rejection path — spec validation, admission, drain, queue
// pressure — must flow through it so Metrics.Rejected is complete.
func (s *Server) reject(err error) (JobView, error) {
	s.tel.rejected.Inc()
	return JobView{}, err
}

// Submit admits a job and enqueues it, returning the queued job's view.
// Rejections wrap ErrRejected (with ErrInfeasible inside for memory
// rejections), ErrDraining, or ErrQueueFull.
func (s *Server) Submit(spec JobSpec) (JobView, error) {
	mspec, err := model.Lookup(spec.Model)
	if err != nil {
		return s.reject(fmt.Errorf("%w: %w", ErrRejected, err))
	}
	if spec.Batch <= 0 {
		return s.reject(fmt.Errorf("%w: batch %d", ErrRejected, spec.Batch))
	}
	if spec.Requests <= 0 {
		return s.reject(fmt.Errorf("%w: %d requests", ErrRejected, spec.Requests))
	}
	if spec.DeadlineSeconds < 0 {
		return s.reject(fmt.Errorf("%w: negative deadline", ErrRejected))
	}
	if spec.DeadlineSeconds*float64(time.Second) >= math.MaxInt64 {
		// Beyond time.Duration's ~292 years the conversion wraps to a
		// deadline in the past.
		return s.reject(fmt.Errorf("%w: deadline %g s exceeds %v", ErrRejected, spec.DeadlineSeconds, time.Duration(math.MaxInt64)))
	}
	if !(spec.Theta >= 0) {
		return s.reject(fmt.Errorf("%w: theta %v", ErrRejected, spec.Theta))
	}
	if spec.Method != "" && !core.ValidMethod(core.Method(spec.Method)) {
		return s.reject(fmt.Errorf("%w: %w %q", ErrRejected, core.ErrUnknownMethod, spec.Method))
	}
	if spec.Prompt < 0 || spec.Output < 0 {
		return s.reject(fmt.Errorf("%w: negative length (prompt %d, output %d)", ErrRejected, spec.Prompt, spec.Output))
	}
	batch, err := s.batches.batch(spec, mspec)
	if err != nil {
		return s.reject(fmt.Errorf("%w: %w", ErrRejected, err))
	}
	if err := admissionCheck(mspec, batch, s.cfg.Planner.Bits, s.cfg.Planner.BitKV, s.cfg.Resources); err != nil {
		return s.reject(fmt.Errorf("%w: %w", ErrRejected, err))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopping {
		s.tel.rejected.Inc()
		return JobView{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueCapacity {
		s.tel.rejected.Inc()
		return JobView{}, ErrQueueFull
	}
	s.seq++
	now := s.clk.Now()
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		seq:       s.seq,
		spec:      spec,
		mspec:     mspec,
		batch:     batch,
		submitted: now,
		state:     StateQueued,
	}
	if spec.DeadlineSeconds > 0 {
		j.deadline = now.Add(time.Duration(spec.DeadlineSeconds * float64(time.Second)))
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	heap.Push(&s.queue, j)
	s.tel.submitted.Inc()
	if tr := s.tel.tr; tr != nil {
		tr.Instant("serve", "submit", tr.Now(), map[string]any{"job": j.id, "model": spec.Model})
	}
	// Broadcast, not Signal: workers waiting for a pool claim share the
	// condition, and a signaled one would re-Wait without passing the
	// wakeup on, stranding the job while idle workers sleep.
	s.cond.Broadcast()
	return j.view(), nil
}

// Job returns the current view of one job.
func (s *Server) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.view(), nil
}

// Jobs lists all jobs in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Cancel cancels a job: queued jobs are removed from the queue, running
// jobs have their planner/executor context canceled. Canceling a
// finished job is a no-op that returns its final view.
func (s *Server) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.state.terminal() {
		return j.view(), nil
	}
	j.cancelRequested = true
	if j.state == StateQueued {
		s.finishLocked(j, StateCanceled, "canceled while queued")
	} else if j.cancel != nil {
		j.cancel()
	}
	return j.view(), nil
}

// finishLocked moves a job to a terminal state (caller holds s.mu).
func (s *Server) finishLocked(j *job, st State, errMsg string) {
	if j.state.terminal() {
		return
	}
	j.state = st
	j.errMsg = errMsg
	j.finished = s.clk.Now()
	s.reserveLocked(j, 0)
	if st == StateCompleted && !j.started.IsZero() {
		lat := j.finished.Sub(j.started).Seconds()
		s.execS.Add(lat)
		s.tel.execHist.Observe(lat)
	}
	switch st {
	case StateCompleted:
		s.tel.completed.Inc()
	case StateFailed:
		s.tel.failed.Inc()
	case StateCanceled:
		s.tel.canceled.Inc()
	}
	if tr := s.tel.tr; tr != nil {
		tr.Instant("serve", "job-"+string(st), tr.Now(), map[string]any{"job": j.id})
	}
}

// Metrics snapshots the server counters. It is a *view* over the
// metrics registry plus the instantaneous queue/fleet state: the
// lifetime counters live in registry atomics (read lock-free), only
// the load snapshot and the latency digests take the server mutex, and
// external pollers — the online engine and the drift detector — run
// strictly outside it, so a slow poll can never stall the submit path.
func (s *Server) Metrics() Metrics {
	t := s.tel
	m := Metrics{
		Submitted:   int(t.submitted.Value()),
		Rejected:    int(t.rejected.Value()),
		Completed:   int(t.completed.Value()),
		Failed:      int(t.failed.Value()),
		Canceled:    int(t.canceled.Value()),
		PlanSeconds: t.planSeconds.Value(),
		SimSeconds:  t.simSeconds.Value(),
		Replans:     int(t.replans.Value()),
		Preemptions: s.fleet.Preemptions(),
	}
	m.CacheHits, m.CacheMisses = s.cache.Stats()
	m.CacheEntries = s.cache.Len()

	s.mu.Lock()
	load := s.loadLocked(s.clk.Now())
	m.JobQueueWait = s.waitS.Summary()
	m.JobExecLatency = s.execS.Summary()
	s.mu.Unlock()
	m.QueueDepth, m.Running, m.Draining = load.queued, load.running, load.draining

	if load.busy != nil {
		for _, v := range s.fleet.Views() {
			m.Capacity = append(m.Capacity, capacity.Advise(v.Resource, v.Devices, load.busy[v.Resource], 0))
		}
	}
	if s.cfg.Online != nil {
		om := s.cfg.Online.Metrics()
		m.Online = &om
		pre, dec := s.cfg.Online.PoolDevices()
		m.Capacity = append(m.Capacity, capacity.Advise("online-prefill", pre, om.PrefillBusyFraction, 0))
		if dec > 0 {
			m.Capacity = append(m.Capacity, capacity.Advise("online-decode", dec, om.DecodeBusyFraction, 0))
		}
		if s.cfg.Drift != nil {
			m.Drift = s.cfg.Drift.Observe(s.cfg.Online.List(), om)
		}
	}
	return m
}

// poolLoad is one pool's load. busySec accumulates the wall seconds of
// released executor claims, and claimedAt marks the current claim (zero
// while the pool is idle) so an in-flight job's time counts too. load
// is the simulated seconds placed on the pool since the server started,
// the backlog placement adds to (see DESIGN.md): it never reads the
// clock.
type poolLoad struct {
	claimedAt time.Time
	busySec   float64
	load      float64
}

func (p *poolLoad) claimed() bool { return !p.claimedAt.IsZero() }

// loadSnapshot is the instantaneous executor load that Metrics, the
// /metrics gather hook and the maintenance gate's default utilization
// all read.
type loadSnapshot struct {
	queued, running int
	draining        bool
	// busy maps each pool to its executor-claimed fraction of the time
	// since the server started; nil while no time has elapsed.
	busy map[string]float64
}

// loadLocked snapshots the executor load at now (caller holds s.mu).
func (s *Server) loadLocked(now time.Time) loadSnapshot {
	l := loadSnapshot{draining: s.draining || s.stopping}
	for _, j := range s.queue {
		if j.state == StateQueued {
			l.queued++
		}
	}
	for _, j := range s.jobs {
		if j.state == StatePlanning || j.state == StateRunning {
			l.running++
		}
	}
	if elapsed := now.Sub(s.started).Seconds(); elapsed > 0 {
		l.busy = make(map[string]float64, len(s.pools))
		for name, p := range s.pools {
			sec := p.busySec
			if p.claimed() {
				sec += now.Sub(p.claimedAt).Seconds()
			}
			l.busy[name] = sec / elapsed
		}
	}
	return l
}

// load is loadLocked at the server clock's current time.
func (s *Server) load() loadSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadLocked(s.clk.Now())
}

// requeueRunning checkpoints every in-flight job back to the queue —
// the drain-timeout path. batchesDone is already checkpointed at batch
// granularity (the same invariant the preemption path relies on), so a
// later resubmission resumes instead of redoing work. The jobs are not
// pushed back onto the heap: the server is stopping, so no worker may
// pick them up again; they stay visible as queued-with-checkpoint in
// the final job views.
func (s *Server) requeueRunning() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if (j.state == StatePlanning || j.state == StateRunning) && !j.cancelRequested {
			j.requeuedByDrain = true
			s.reserveLocked(j, 0)
			j.state = StateQueued
			j.resource = ""
			j.cancel = nil
		}
	}
}

// Drain stops admitting new jobs; queued and in-flight jobs still run to
// completion. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Fleet exposes the dynamic availability view of the server's pools so
// operators and fault injectors can reclaim and return devices at
// runtime; executors poll it at batch boundaries.
func (s *Server) Fleet() *scheduler.FleetState { return s.fleet }

// PoolView is the HTTP rendering of one pool's dynamic availability.
type PoolView struct {
	Name string `json:"name"`
	// Cluster is the usable composition ("" when fully reclaimed).
	Cluster string `json:"cluster,omitempty"`
	// Devices / TotalDevices are the usable and intact device counts.
	Devices      int `json:"devices"`
	TotalDevices int `json:"total_devices"`
	// Generation increments on every preemption or restore.
	Generation uint64 `json:"generation"`
	// Preempted maps device class → currently reclaimed count.
	Preempted map[string]int `json:"preempted,omitempty"`
}

// poolView converts a scheduler availability snapshot to the wire form.
func poolView(v scheduler.View) PoolView {
	pv := PoolView{
		Name:         v.Resource,
		Devices:      v.Devices,
		TotalDevices: v.TotalDevices,
		Generation:   v.Generation,
	}
	if v.Cluster != nil {
		pv.Cluster = v.Cluster.String()
	}
	if len(v.Preempted) > 0 {
		pv.Preempted = map[string]int{}
		for class, n := range v.Preempted {
			pv.Preempted[string(class)] = n
		}
	}
	return pv
}

// FleetViews snapshots every pool's availability in registration order.
func (s *Server) FleetViews() []PoolView {
	views := s.fleet.Views()
	out := make([]PoolView, 0, len(views))
	for _, v := range views {
		out = append(out, poolView(v))
	}
	return out
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves the HTTP API,
// returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.Handler()}
	s.httpMu.Lock()
	s.lis = lis
	s.httpSrv = srv
	s.httpMu.Unlock()
	go srv.Serve(lis)
	return lis.Addr().String(), nil
}

// Addr returns the bound HTTP address ("" before Start).
func (s *Server) Addr() string {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Shutdown drains the server gracefully: new submissions are rejected,
// still-queued jobs are canceled, in-flight jobs finish their batches,
// the plan cache is persisted to StateDir, and the HTTP listener (when
// started) closes. Cancelling ctx aborts in-flight work instead of
// waiting for it. Idempotent; later calls return the first persist
// error, if any.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return s.waitAndPersist(ctx)
	}
	s.stopping = true
	s.draining = true
	for _, j := range s.jobs {
		if j.state == StateQueued {
			s.finishLocked(j, StateCanceled, "canceled by shutdown")
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return s.waitAndPersist(ctx)
}

func (s *Server) waitAndPersist(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var timeout <-chan struct{}
	if s.cfg.DrainTimeout > 0 {
		tctx, cancel := s.clk.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		timeout = tctx.Done()
	}
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel() // abort in-flight solver/executor work
		<-done
	case <-timeout:
		// The drain deadline fired with executor work still in flight —
		// possibly wedged inside a batch (a stuck BatchHook never
		// returns, so even a canceled context cannot unwind it).
		// Checkpoint and requeue every in-flight job, cancel the
		// executor contexts, and proceed WITHOUT waiting: blocking on
		// the wedged worker here would reintroduce the hang this
		// timeout exists to bound. The worker unwinds whenever the
		// wedge clears; cancelFinished skips requeued jobs so the late
		// unwind cannot cancel their checkpoints.
		s.requeueRunning()
		s.baseCancel()
	}
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.httpMu.Unlock()
	if srv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shCtx)
	}
	if s.cfg.StateDir != "" {
		// Persist exactly once: concurrent Shutdown callers racing
		// independent Save calls could rename the same temp file out from
		// under each other and surface a spurious error. Every caller
		// observes the single persist's outcome.
		s.persistOnce.Do(func() { s.persistErr = s.cache.Save(s.cachePath()) })
		return s.persistErr
	}
	return nil
}
