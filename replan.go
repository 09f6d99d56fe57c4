package splitquant

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/quant"
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
// PlanStats. A nil prev (or one whose plan
// cannot be expressed on the current topology at all) searches as
// PlanContext does.
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

// candidateBits is the weight bitwidth set every solve searches.
var candidateBits = []int{3, 4, 8, 16}

// sharedState is the planner state a Fork family has in common: the
// per-device cost cache, the plan cache, and the quality indicator
// (Forks serve the same model over the same bit set, so one indicator
// fits the family). All members are safe for concurrent use.
type sharedState struct {
	costs *core.CostCache
	ind   *core.Indicator
	plans *core.PlanCache
}

func newSharedState(spec *model.Spec) *sharedState {
	return &sharedState{
		costs: core.NewCostCache(),
		ind:   core.ProfileIndicator(spec, candidateBits, quant.Deterministic),
		plans: core.NewPlanCache(0),
	}
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

// coreOptions translates resolved options for the internal planner,
// wiring in the family's shared cost cache.
func (s *System) coreOptions(o options) core.Options {
	co := core.Options{
		Bits:          candidateBits,
		Theta:         o.theta,
		Method:        o.method,
		QualityCap:    o.qualityCap,
		OrderingLimit: o.orderings,
		Parallelism:   o.parallelism,
		Costs:         s.shared.costs,
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
// Replan. prev == nil is a cold plan; otherwise the previous
// deployment is reused verbatim (identical inputs), served from the
// plan cache, or handed to the core solver as a warm-start incumbent.
func (s *System) replanBatch(ctx context.Context, prev *Deployment, batch workload.Batch, planOpts []PlanOption) (*Deployment, error) {
	o, err := s.resolve(planOpts)
	if err != nil {
		return nil, err
	}
	co := s.coreOptions(o)
	key := core.PlanKey(s.spec.Name, s.clu.Fingerprint(), batch, co)
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
		if p, rep, ok := s.shared.plans.Lookup(key, s.clu, s.spec.Layers); ok {
			return &Deployment{sys: s, plan: p, batch: batch, report: rep, key: key, reused: true}, nil
		}
	}
	a, err := core.New(s.spec, s.clu, s.shared.ind, co)
	if err != nil {
		return nil, err
	}
	var inc *core.Incumbent
	if prev != nil && prev.plan != nil {
		inc = &core.Incumbent{Plan: prev.plan}
	}
	p, rep, err := a.Replan(ctx, batch, inc)
	if err != nil {
		return nil, err
	}
	if !rep.Cancelled {
		if raw, err := json.Marshal(p); err == nil {
			s.shared.plans.Put(key, raw, rep)
		}
	}
	return &Deployment{sys: s, plan: p, batch: batch, report: rep, key: key}, nil
}
