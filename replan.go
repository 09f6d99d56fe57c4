package splitquant

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Replan plans the workload warm-starting from a previous deployment.
// The previous plan — typically produced on an earlier incarnation of
// the cluster, before devices were preempted or restored — seeds the
// search: it is adapted onto the current topology, its objective starts
// the pruning threshold that a cold search starts at +Inf, candidate
// configurations are evaluated closest to it first, and per-device cost
// evaluations hit the System's shared cost cache. A completed Replan
// returns a plan bit-identical to a cold PlanContext on the same
// inputs; PlanStats reports the work (WarmStarted, PrunedConfigs,
// CostCacheHits).
//
// Two fast paths may answer without searching: when prev was planned
// under the same core.PlanKey (identical cluster, batch and options) it
// is reused verbatim, and when the Fork family's plan cache holds that
// key the cached plan is returned; both report Reused=true in
// PlanStats. A nil prev (or one whose plan cannot be expressed on the
// current topology at all) plans as PlanContext does.
func (s *System) Replan(ctx context.Context, prev *Deployment, w Workload, batchSize int, opts ...PlanOption) (*Deployment, error) {
	batch, err := s.synthesize(w, batchSize)
	if err != nil {
		return nil, err
	}
	return s.replanBatch(ctx, prev, batch, opts)
}

// ReadPlanJSON deserializes a plan previously written with
// Deployment.WritePlanJSON and wraps it as a Deployment of this System,
// primarily for use as a Replan incumbent. The plan is bound to the
// System's cluster when its devices still exist there; an unbound plan
// (from a since-changed topology) still seeds Replan, but methods that
// need live devices (Stages, Measure) must not be called on it.
func (s *System) ReadPlanJSON(r io.Reader) (*Deployment, error) {
	var p plan.Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("splitquant: reading plan: %w", err)
	}
	if p.Model != "" && p.Model != s.spec.Name {
		return nil, fmt.Errorf("splitquant: plan is for model %q, system serves %q", p.Model, s.spec.Name)
	}
	_ = p.Bind(s.clu) // best effort: foreign topologies stay unbound
	return &Deployment{sys: s, plan: &p, report: &core.Report{}}, nil
}

// resolve applies per-call options on top of the System defaults.
func (s *System) resolve(opts []PlanOption) (options, error) {
	o := s.opts
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	if err := validMethod(o.method); err != nil {
		return o, err
	}
	return o, nil
}

// coreOptions translates resolved options for the internal planner.
func (s *System) coreOptions(o options) core.Options {
	co := core.Options{
		Theta:         o.theta,
		Method:        o.method,
		QualityCap:    o.qualityCap,
		OrderingLimit: o.orderings,
		Parallelism:   o.parallelism,
	}
	if hook := o.progress; hook != nil {
		co.Progress = func(p core.Progress) {
			hook(PlanProgress{
				Phase: p.Phase, Done: p.Done, Total: p.Total, BestObjective: p.BestObjective,
				Config: ConfigStat(p.Config),
			})
		}
	}
	return co
}

// replanBatch is the single solve path behind Plan, PlanContext and
// Replan. prev == nil is a cold plan. A prev planned under the same key
// is reused verbatim (identical inputs); otherwise the family's plan
// cache answers or solves, warm-started from prev's plan when there is
// one.
func (s *System) replanBatch(ctx context.Context, prev *Deployment, batch workload.Batch, planOpts []PlanOption) (*Deployment, error) {
	o, err := s.resolve(planOpts)
	if err != nil {
		return nil, err
	}
	co := s.coreOptions(o)
	key := core.PlanKey(s.spec.Name, s.clu.Fingerprint(), batch, co)
	var inc *plan.Plan
	if prev != nil && prev.plan != nil {
		// Nothing changed since prev was planned: it is already the
		// answer. Equal keys mean an identical cluster (cluster.Diff's
		// Identical tier); the weaker CompositionIntact tier (same class
		// counts, different layout) needs no special casing here because
		// the shared cost cache keeps every per-(class, precision,
		// phase, shape) evaluation valid across such changes anyway.
		if prev.key == key && prev.report != nil && !prev.report.Cancelled {
			return &Deployment{sys: s, plan: prev.plan, batch: batch, report: prev.report, key: key, reused: true}, nil
		}
		inc = prev.plan
	}
	p, rep, hit, err := s.plans.Plan(ctx, s.spec, s.clu, batch, co, inc)
	if err != nil {
		return nil, err
	}
	return &Deployment{sys: s, plan: p, batch: batch, report: rep, key: key, reused: hit}, nil
}
