package maintenance

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

var opCounter atomic.Uint64

// stepRun is one step's mutable record (guarded by the orchestrator
// mutex).
type stepRun struct {
	kind     StepKind
	state    string
	attempts int
	err      error
	seconds  float64
}

// domainRun is one failure domain's mutable record.
type domainRun struct {
	name    string
	targets []Target
	state   string
	steps   []*stepRun
	// drained are the targets successfully preempted so far — the set
	// rollback and readmit restore.
	drained  []Target
	migrated int
}

func (d *domainRun) step(k StepKind) *stepRun {
	for _, s := range d.steps {
		if s.kind == k {
			return s
		}
	}
	return nil
}

// Orchestrator executes one maintenance Request as a state machine:
// per-domain gate → drain → migrate → restart → health-check → readmit,
// with per-step timeouts, capped-backoff retries, and automatic
// rollback (re-admit what was drained) when a health check fails after
// its retry budget.
type Orchestrator struct {
	req   Request
	fleet Fleet
	hooks Hooks
	id    string

	mu       sync.Mutex
	state    string
	domains  []*domainRun
	drained  int
	migrated int
	rollback int
	errMsg   string

	abortRequested bool
	cancel         context.CancelFunc
	done           chan struct{}

	tel *telemetry
}

// New validates the request and runs the pre-flight capacity gate over
// every window of Concurrency consecutive domains. An infeasible drain
// is rejected here — before any device is touched — with an
// *InfeasibleError (errors.Is(err, ErrInfeasible)).
func New(req Request, fleet Fleet, hooks Hooks) (*Orchestrator, error) {
	if fleet == nil {
		return nil, fmt.Errorf("maintenance: nil fleet")
	}
	req, err := req.withDefaults()
	if err != nil {
		return nil, err
	}
	domains := groupDomains(req.Targets)
	if err := preflight(fleet, hooks, req, domains); err != nil {
		return nil, err
	}
	return &Orchestrator{
		req:     req,
		fleet:   fleet,
		hooks:   hooks,
		id:      fmt.Sprintf("mw-%d", opCounter.Add(1)),
		state:   StatePending,
		domains: domains,
		done:    make(chan struct{}),
	}, nil
}

// Start launches Run on its own goroutine.
func (o *Orchestrator) Start(ctx context.Context) {
	go o.Run(ctx) //nolint:errcheck // surfaced via Status
}

// Done is closed when Run returns.
func (o *Orchestrator) Done() <-chan struct{} { return o.done }

// Abort cancels the operation and blocks until Run has wound down
// (in-flight domains roll back their drains first). Calling Abort
// before Run is safe: the run observes the pre-cancelled context and
// exits immediately.
func (o *Orchestrator) Abort() Status {
	o.mu.Lock()
	o.abortRequested = true
	if o.cancel != nil {
		o.cancel()
	} else if o.state == StatePending {
		// Run not started yet: mark aborted so a later Run refuses.
		o.state = StateAborted
		o.errMsg = ErrAborted.Error()
		close(o.done)
	}
	started := o.cancel != nil
	o.mu.Unlock()
	if started {
		<-o.done
	}
	return o.Status()
}

// Run executes the plan and blocks until it finishes, fails, or the
// context is cancelled. It may be called once.
func (o *Orchestrator) Run(ctx context.Context) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	o.mu.Lock()
	if o.state != StatePending {
		o.mu.Unlock()
		return fmt.Errorf("maintenance: operation %s already %s", o.id, o.state)
	}
	o.state = StateRunning
	o.cancel = cancel
	o.mu.Unlock()
	o.tel.opState(1)

	// Domains run in request order through a Concurrency-bounded
	// semaphore; the first failure cancels the rest (each in-flight
	// domain rolls its own drains back on the way out).
	sem := make(chan struct{}, o.req.Concurrency)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for _, d := range o.domains {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(d *domainRun) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := o.runDomain(ctx, d); err != nil {
				errOnce.Do(func() { firstErr = err; cancel() })
			}
		}(d)
	}
	wg.Wait()

	o.mu.Lock()
	aborted := o.abortRequested || parent.Err() != nil
	pending := false
	for _, d := range o.domains {
		if d.state == StatePending {
			pending = true
		}
	}
	err := firstErr
	switch {
	case err == nil && !(aborted && pending):
		// Either a clean finish, or an abort that arrived after the last
		// domain completed — nothing was interrupted.
		o.state = StateDone
	case aborted:
		o.state = StateAborted
		if err == nil {
			err = ErrAborted
		}
		o.errMsg = err.Error()
	default:
		o.state = StateFailed
		o.errMsg = err.Error()
	}
	// Domains never started stay pending in the report.
	o.mu.Unlock()
	o.tel.opState(0)
	close(o.done)
	return err
}

// runDomain drives one failure domain through the plan.
func (o *Orchestrator) runDomain(ctx context.Context, d *domainRun) (err error) {
	o.setDomainState(d, StateRunning)
	defer func() {
		if err == nil {
			o.setDomainState(d, StateDone)
			o.tel.stepGauge(d.name, 0) // 0 = done/idle
		}
	}()

	// gate: re-prove feasibility against the live views (other domains
	// may have drained since pre-flight; Snapshot reflects them).
	if err := o.runStep(ctx, d, StepGate, func(context.Context) error {
		return gate(o.fleet, o.hooks, o.req, d, nil)
	}); err != nil {
		o.setDomainState(d, StateFailed)
		return err
	}

	// drain: preempt each target; partial failure rolls back what this
	// domain already took.
	if err := o.runStep(ctx, d, StepDrain, func(context.Context) error {
		for _, t := range d.targets {
			if o.isDrained(d, t) {
				continue
			}
			if _, err := o.fleet.Preempt(t.Pool, class(t), t.Count); err != nil {
				return err
			}
			o.markDrained(d, t)
		}
		return nil
	}); err != nil {
		o.rollbackDomain(d, err)
		return err
	}

	// migrate: move in-flight sessions off the drained devices.
	if o.hooks.Migrate != nil {
		if err := o.runStep(ctx, d, StepMigrate, func(sctx context.Context) error {
			for _, t := range d.targets {
				n, err := o.hooks.Migrate(sctx, t)
				o.addMigrated(d, n)
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			o.rollbackDomain(d, err)
			return err
		}
	} else {
		o.skipStep(d, StepMigrate)
	}

	// restart: the maintenance action itself.
	if o.hooks.Restart != nil {
		if err := o.runStep(ctx, d, StepRestart, func(sctx context.Context) error {
			for _, t := range d.targets {
				if err := o.hooks.Restart(sctx, t); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			o.rollbackDomain(d, err)
			return err
		}
	} else {
		o.skipStep(d, StepRestart)
	}

	// health-check: failure after the retry budget triggers rollback.
	if o.hooks.Health != nil {
		if err := o.runStep(ctx, d, StepHealth, func(sctx context.Context) error {
			for _, t := range d.targets {
				if err := o.hooks.Health(sctx, t); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			o.rollbackDomain(d, err)
			return fmt.Errorf("maintenance: domain %q failed health check: %w", d.name, err)
		}
	} else {
		o.skipStep(d, StepHealth)
	}

	// readmit: return the drained devices.
	if err := o.runStep(ctx, d, StepReadmit, func(context.Context) error {
		return o.restoreDrained(d)
	}); err != nil {
		o.setDomainState(d, StateFailed)
		return err
	}
	return nil
}

// runStep executes one step with per-attempt timeout and deterministic
// capped-exponential backoff between attempts.
func (o *Orchestrator) runStep(ctx context.Context, d *domainRun, kind StepKind, fn func(context.Context) error) error {
	o.setStep(d, kind, StateRunning, nil)
	o.tel.stepGauge(d.name, stepCode(kind))
	start := time.Now()
	var err error
	for attempt := 1; attempt <= o.req.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			err = ctx.Err()
			break
		}
		o.bumpAttempt(d, kind)
		sctx, cancel := context.WithTimeout(ctx, o.req.stepTimeout())
		err = fn(sctx)
		cancel()
		if err == nil {
			break
		}
		o.tel.retryInc()
		if attempt < o.req.MaxAttempts {
			if !sleepCtx(ctx, o.req.retryDelay(attempt)) {
				err = ctx.Err()
				break
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	if err != nil {
		o.setStepTimed(d, kind, StateFailed, err, elapsed)
		o.tel.span(d.name, kind, elapsed, false)
		return err
	}
	o.setStepTimed(d, kind, StateDone, nil, elapsed)
	o.tel.span(d.name, kind, elapsed, true)
	return nil
}

// retryDelay is the deterministic wait after a step's attempt-th failed
// attempt: base·2^(attempt−1), capped at 16·base.
func (r Request) retryDelay(attempt int) time.Duration {
	base := time.Duration(r.RetryBaseSeconds * float64(time.Second))
	return transport.RetryPolicy{BaseDelay: base, MaxDelay: 16 * base}.Delay(attempt, nil)
}

// sleepCtx sleeps d or until ctx cancels; reports whether it slept the
// full duration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// rollbackDomain re-admits everything the domain drained. Best-effort:
// restore errors are recorded on the rollback step but do not mask the
// original failure.
func (o *Orchestrator) rollbackDomain(d *domainRun, cause error) {
	o.mu.Lock()
	rb := &stepRun{kind: StepRollback, state: StateRunning}
	d.steps = append(d.steps, rb)
	o.mu.Unlock()
	o.tel.stepGauge(d.name, stepCode(StepRollback))

	start := time.Now()
	err := o.restoreDrained(d)
	elapsed := time.Since(start).Seconds()

	o.mu.Lock()
	rb.seconds = elapsed
	rb.attempts = 1
	if err != nil {
		rb.state = StateFailed
		rb.err = err
	} else {
		rb.state = StateDone
	}
	d.state = StateRolledBack
	o.rollback++
	o.mu.Unlock()
	o.tel.rollbackInc()
	o.tel.span(d.name, StepRollback, elapsed, err == nil)
}

// restoreDrained returns every device the domain still holds.
func (o *Orchestrator) restoreDrained(d *domainRun) error {
	o.mu.Lock()
	drained := append([]Target(nil), d.drained...)
	o.mu.Unlock()
	var firstErr error
	for _, t := range drained {
		if _, err := o.fleet.Restore(t.Pool, class(t), t.Count); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		o.mu.Lock()
		d.drained = removeTarget(d.drained, t)
		o.drained -= t.Count
		o.mu.Unlock()
		o.tel.drainedGauge(-float64(t.Count))
	}
	return firstErr
}

func removeTarget(ts []Target, t Target) []Target {
	for i := range ts {
		if ts[i] == t {
			return append(ts[:i], ts[i+1:]...)
		}
	}
	return ts
}

// Status snapshots the operation.
func (o *Orchestrator) Status() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := Status{
		ID:       o.id,
		State:    o.state,
		Request:  o.req,
		Drained:  o.drained,
		Migrated: o.migrated,
		Rollback: o.rollback,
		Error:    o.errMsg,
	}
	for _, d := range o.domains {
		ds := DomainStatus{
			Domain:   d.name,
			Targets:  append([]Target(nil), d.targets...),
			State:    d.state,
			Migrated: d.migrated,
		}
		for _, t := range d.drained {
			ds.Drained += t.Count
		}
		for _, s := range d.steps {
			ss := StepStatus{Kind: s.kind, State: s.state, Attempts: s.attempts, Seconds: s.seconds}
			if s.err != nil {
				ss.Error = s.err.Error()
			}
			ds.Steps = append(ds.Steps, ss)
		}
		st.Domains = append(st.Domains, ds)
	}
	return st
}

// --- small guarded mutators -------------------------------------------

func (o *Orchestrator) setDomainState(d *domainRun, state string) {
	o.mu.Lock()
	d.state = state
	o.mu.Unlock()
}

func (o *Orchestrator) setStep(d *domainRun, kind StepKind, state string, err error) {
	o.mu.Lock()
	if s := d.step(kind); s != nil {
		s.state = state
		s.err = err
	}
	o.mu.Unlock()
}

func (o *Orchestrator) setStepTimed(d *domainRun, kind StepKind, state string, err error, seconds float64) {
	o.mu.Lock()
	if s := d.step(kind); s != nil {
		s.state = state
		s.err = err
		s.seconds = seconds
	}
	o.mu.Unlock()
}

func (o *Orchestrator) skipStep(d *domainRun, kind StepKind) {
	o.mu.Lock()
	if s := d.step(kind); s != nil {
		s.state = StateDone
	}
	o.mu.Unlock()
}

func (o *Orchestrator) bumpAttempt(d *domainRun, kind StepKind) {
	o.mu.Lock()
	if s := d.step(kind); s != nil {
		s.attempts++
	}
	o.mu.Unlock()
}

func (o *Orchestrator) isDrained(d *domainRun, t Target) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, dt := range d.drained {
		if dt == t {
			return true
		}
	}
	return false
}

func (o *Orchestrator) markDrained(d *domainRun, t Target) {
	o.mu.Lock()
	d.drained = append(d.drained, t)
	o.drained += t.Count
	o.mu.Unlock()
	o.tel.drainedGauge(float64(t.Count))
}

func (o *Orchestrator) addMigrated(d *domainRun, n int) {
	if n <= 0 {
		return
	}
	o.mu.Lock()
	d.migrated += n
	o.migrated += n
	o.mu.Unlock()
	o.tel.migrated(float64(n))
}
