// Package maintenance is the zero-downtime rolling-maintenance control
// plane for the stage fleet. A maintenance Request names the devices to
// roll (pool, device class, count) grouped into failure domains; the
// Orchestrator computes an action plan — drain → migrate in-flight
// sessions → restart → health-check → re-admit — and executes it one
// failure domain at a time (bounded by Concurrency), proving before
// every drain that the remaining capacity stays SLO-feasible via
// capacity.Advise. An infeasible request is refused with a typed error
// before any device is touched; a health-check failure rolls the domain
// back by re-admitting everything it drained.
//
// Draining drives scheduler.FleetState.Preempt, so serve executors see
// the generation bump at their next batch boundary and re-plan onto the
// remaining devices (the preemption checkpoint path); re-admission is
// FleetState.Restore. In-flight online sessions migrate by token-log
// replay (transport.Driver.GenerateLog/Resume via the Migrator), which
// rebuilds KV caches deterministically on the destination, so outputs
// stay bit-identical across the move even when the chaos proxy cuts or
// stalls the stream mid-migration.
package maintenance

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/capacity"
	"repro/internal/gpu"
	"repro/internal/scheduler"
)

// Sentinel errors. InfeasibleError carries the gate details and matches
// ErrInfeasible under errors.Is.
var (
	// ErrInfeasible marks a drain the capacity gate refused: the pool's
	// remaining devices could not absorb the observed load at the target
	// utilization. Nothing has been drained when this is returned.
	ErrInfeasible = errors.New("maintenance: drain would leave the pool SLO-infeasible")
	// ErrActive marks an attempt to start a maintenance operation while
	// another is still running.
	ErrActive = errors.New("maintenance: an operation is already active")
	// ErrNone marks status/abort calls when no operation exists.
	ErrNone = errors.New("maintenance: no operation")
	// ErrAborted marks an operation stopped by Abort or context cancel.
	ErrAborted = errors.New("maintenance: aborted")
)

// InfeasibleError is the typed refusal from the capacity gate: draining
// Drain devices from Pool would leave Remaining usable devices, but the
// observed utilization needs at least Needed to stay under the target ρ.
type InfeasibleError struct {
	Domain      string
	Pool        string
	Drain       int
	Remaining   int
	Needed      int
	Utilization float64
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("maintenance: domain %q infeasible: draining %d from pool %s leaves %d devices, load (util %.2f) needs %d",
		e.Domain, e.Drain, e.Pool, e.Remaining, e.Utilization, e.Needed)
}

// Is matches ErrInfeasible so callers can branch without the struct.
func (e *InfeasibleError) Is(target error) bool { return target == ErrInfeasible }

// Target names devices to roll: count devices of a class in a pool.
// Targets sharing a Domain label drain together as one failure domain;
// an empty Domain defaults to "pool/class", so distinct pools roll
// separately by default.
type Target struct {
	Pool   string `json:"pool"`
	Class  string `json:"class"`
	Count  int    `json:"count"`
	Domain string `json:"domain,omitempty"`
}

// class is the target's device class as the scheduler types it.
func class(t Target) gpu.DeviceClass { return gpu.DeviceClass(t.Class) }

func (t Target) domain() string {
	if t.Domain != "" {
		return t.Domain
	}
	return t.Pool + "/" + t.Class
}

// Request is one maintenance operation.
type Request struct {
	// Targets are the devices to roll, grouped by Domain label.
	Targets []Target `json:"targets"`
	// Concurrency bounds how many failure domains are in flight at
	// once (default 1 — strictly rolling).
	Concurrency int `json:"concurrency,omitempty"`
	// TargetRho is the post-drain utilization ceiling the capacity gate
	// enforces (default 0.85, matching capacity.Advise).
	TargetRho float64 `json:"target_rho,omitempty"`
	// StepTimeoutSeconds bounds each step attempt (default 30s).
	StepTimeoutSeconds float64 `json:"step_timeout_seconds,omitempty"`
	// MaxAttempts bounds retries per step (default 3).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// RetryBaseSeconds seeds the capped exponential backoff between
	// step attempts (default 100ms, capped at 16x).
	RetryBaseSeconds float64 `json:"retry_base_seconds,omitempty"`
}

// defaultTargetRho mirrors capacity.Advise's default utilization target.
const defaultTargetRho = 0.85

func (r Request) withDefaults() (Request, error) {
	out := r
	if len(out.Targets) == 0 {
		return out, fmt.Errorf("maintenance: request names no targets")
	}
	for i, t := range out.Targets {
		if t.Pool == "" || t.Class == "" {
			return out, fmt.Errorf("maintenance: target %d needs a pool and a device class", i)
		}
		if t.Count <= 0 {
			return out, fmt.Errorf("maintenance: target %d drains %d devices", i, t.Count)
		}
	}
	if out.Concurrency <= 0 {
		out.Concurrency = 1
	}
	if out.TargetRho <= 0 || out.TargetRho >= 1 {
		out.TargetRho = defaultTargetRho
	}
	if out.StepTimeoutSeconds <= 0 {
		out.StepTimeoutSeconds = 30
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 3
	}
	if out.RetryBaseSeconds <= 0 {
		out.RetryBaseSeconds = 0.1
	}
	return out, nil
}

func (r Request) stepTimeout() time.Duration {
	return time.Duration(r.StepTimeoutSeconds * float64(time.Second))
}

// Fleet is the slice of scheduler.FleetState the orchestrator drives:
// drain is Preempt, re-admit is Restore. *scheduler.FleetState
// satisfies it.
type Fleet interface {
	Preempt(pool string, class gpu.DeviceClass, count int) (scheduler.View, error)
	Restore(pool string, class gpu.DeviceClass, count int) (scheduler.View, error)
	Snapshot(pool string) (scheduler.View, error)
}

// Hooks are the pluggable actions behind the plan's steps. Every field
// is optional; nil hooks are no-ops (Utilization reads as an idle
// pool). The serve daemon wires Utilization to its executor busy
// fractions and Migrate to the online engine / transport Migrator.
type Hooks struct {
	// Utilization returns the pool's observed busy fraction in [0, 1+),
	// the load the capacity gate must prove the remaining devices can
	// absorb.
	Utilization func(pool string) float64
	// Migrate moves the target's in-flight sessions off the draining
	// devices and returns how many it moved.
	Migrate func(ctx context.Context, t Target) (int, error)
	// Restart performs the maintenance action itself (patch, restart).
	Restart func(ctx context.Context, t Target) error
	// Health verifies the target after restart; an error after retries
	// triggers rollback.
	Health func(ctx context.Context, t Target) error
}

func (h Hooks) utilization(pool string) float64 {
	if h.Utilization == nil {
		return 0
	}
	return h.Utilization(pool)
}

// StepKind names one state-machine step.
type StepKind string

const (
	StepGate     StepKind = "gate"
	StepDrain    StepKind = "drain"
	StepMigrate  StepKind = "migrate"
	StepRestart  StepKind = "restart"
	StepHealth   StepKind = "health-check"
	StepReadmit  StepKind = "readmit"
	StepRollback StepKind = "rollback"
)

// steps is the per-domain plan in execution order (rollback is appended
// only when taken).
var steps = []StepKind{StepGate, StepDrain, StepMigrate, StepRestart, StepHealth, StepReadmit}

// stepCode maps a step to the value the maintenance_step gauge reports
// for a domain currently in that step.
func stepCode(k StepKind) float64 {
	for i, s := range steps {
		if s == k {
			return float64(i + 1)
		}
	}
	if k == StepRollback {
		return -1
	}
	return 0
}

// Operation / domain / step states.
const (
	StatePending    = "pending"
	StateRunning    = "running"
	StateDone       = "done"
	StateFailed     = "failed"
	StateAborted    = "aborted"
	StateRolledBack = "rolled-back"
)

// StepStatus is one step's progress.
type StepStatus struct {
	Kind     StepKind `json:"kind"`
	State    string   `json:"state"`
	Attempts int      `json:"attempts,omitempty"`
	Error    string   `json:"error,omitempty"`
	Seconds  float64  `json:"seconds,omitempty"`
}

// DomainStatus is one failure domain's progress.
type DomainStatus struct {
	Domain   string       `json:"domain"`
	Targets  []Target     `json:"targets"`
	State    string       `json:"state"`
	Steps    []StepStatus `json:"steps"`
	Drained  int          `json:"drained_devices,omitempty"`
	Migrated int          `json:"migrated_sessions,omitempty"`
}

// Status is the whole operation's progress snapshot.
type Status struct {
	ID       string         `json:"id"`
	State    string         `json:"state"`
	Request  Request        `json:"request"`
	Domains  []DomainStatus `json:"domains"`
	Drained  int            `json:"drained_devices"`
	Migrated int            `json:"migrated_sessions"`
	Rollback int            `json:"rollbacks"`
	Error    string         `json:"error,omitempty"`
}

// groupDomains orders failure domains by first appearance of their
// label, merging targets that share one.
func groupDomains(targets []Target) []*domainRun {
	var out []*domainRun
	index := map[string]*domainRun{}
	for _, t := range targets {
		name := t.domain()
		d, ok := index[name]
		if !ok {
			d = &domainRun{name: name, state: StatePending}
			for _, k := range steps {
				d.steps = append(d.steps, &stepRun{kind: k, state: StatePending})
			}
			index[name] = d
			out = append(out, d)
		}
		d.targets = append(d.targets, t)
	}
	return out
}

// gate proves that draining d's devices keeps every touched pool
// SLO-feasible: for each pool, the devices left after the drain must
// cover capacity.Advise's recommendation for the observed utilization
// at the target ρ. extra adds hypothetical already-drained counts per
// pool (the pre-flight check stacks Concurrency consecutive domains).
func gate(fleet Fleet, hooks Hooks, req Request, d *domainRun, extra map[string]int) error {
	drains := map[string]int{}
	for _, t := range d.targets {
		drains[t.Pool] += t.Count
	}
	for pool, n := range drains {
		view, err := fleet.Snapshot(pool)
		if err != nil {
			return err
		}
		util := hooks.utilization(pool)
		adv := capacity.Advise(pool, view.Devices, util, req.TargetRho)
		remaining := view.Devices - n - extra[pool]
		if remaining < 1 || adv.Saturated || remaining < adv.RecommendedDevices {
			return &InfeasibleError{
				Domain:      d.name,
				Pool:        pool,
				Drain:       n + extra[pool],
				Remaining:   remaining,
				Needed:      adv.RecommendedDevices,
				Utilization: util,
			}
		}
	}
	// Per-class sanity: the pool must actually hold enough un-reclaimed
	// devices of each class, so an impossible request fails here rather
	// than mid-drain.
	byClass := map[[2]string]int{}
	for _, t := range d.targets {
		byClass[[2]string{t.Pool, t.Class}] += t.Count
	}
	for key, n := range byClass {
		view, err := fleet.Snapshot(key[0])
		if err != nil {
			return err
		}
		avail := view.Capacity[gpu.DeviceClass(key[1])] - view.Preempted[gpu.DeviceClass(key[1])]
		if n > avail {
			return &InfeasibleError{
				Domain: d.name, Pool: key[0], Drain: n,
				Remaining: avail - n, Needed: 0,
			}
		}
	}
	return nil
}

// preflight rejects the whole request before anything drains: every
// window of Concurrency consecutive domains must be jointly feasible
// against the current views, since that many can be drained at once.
func preflight(fleet Fleet, hooks Hooks, req Request, domains []*domainRun) error {
	for _, d := range domains {
		if err := gate(fleet, hooks, req, d, nil); err != nil {
			return err
		}
	}
	w := req.Concurrency
	if w > len(domains) {
		w = len(domains)
	}
	for i := 0; w > 1 && i+w <= len(domains); i++ {
		extra := map[string]int{}
		for _, d := range domains[i : i+w-1] {
			for _, t := range d.targets {
				extra[t.Pool] += t.Count
			}
		}
		if err := gate(fleet, hooks, req, domains[i+w-1], extra); err != nil {
			return err
		}
	}
	return nil
}
