// Package splitquant is the public API of the SplitQuant reproduction: a
// phase-aware planner and simulated runtime for serving large language
// models on heterogeneous GPU clusters with adaptive mixed-precision
// quantization (CLUSTER 2025).
//
// A System couples a model architecture with a cluster description.
// Plan produces a Deployment — per-layer quantization bitwidths, a
// contiguous layer partition across devices, and micro-batch sizes —
// whose throughput can be measured on the built-in discrete-event
// pipeline simulator:
//
//	sys, _ := splitquant.New("opt-30b", splitquant.Preset(5))
//	dep, _ := sys.Plan(splitquant.Summarization(1), 32)
//	m, _ := dep.Measure()
//	fmt.Println(dep, m.Throughput)
//
// Planning is parallel (WithParallelism) yet deterministic — the same
// inputs produce bit-identical plans at any worker count — and
// cancellable: PlanContext honors context cancellation and deadlines,
// returning the best incumbent plan found so far (see
// Deployment.Stats). WithProgress streams live search progress.
//
// # Options per System vs. options per call
//
// Every planning option has one type (Option, aliased as PlanOption)
// and two scopes. Options passed to New or Fork become the System's
// defaults — they describe how this System plans unless told otherwise.
// The same options passed to an individual Plan/PlanContext call
// override the defaults for that one solve only, so a single System can
// serve many differently-configured solves concurrently:
//
//	sys, _ := splitquant.New("opt-30b", splitquant.Preset(5), splitquant.WithTheta(5))
//	fast, _ := sys.Plan(w, 32)                                // θ=5, heuristic
//	good, _ := sys.Plan(w, 32, splitquant.WithMethod(splitquant.MethodILP))
//
// A System is safe for concurrent Plan calls.
//
// # Re-planning after churn
//
// Every plan skips the configurations whose lower bound proves
// they cannot reach the shortlist. When devices are preempted or
// restored, Fork the System onto the new cluster and plan there: the
// Fork family shares one plan cache and one cost cache, so a return to
// a composition the family has solved is answered outright (PlanStats
// reports Reused), and a new composition reuses every per-device cost
// evaluation the family has made. Either way the plan is bit-identical
// to a PlanContext on a fresh System — only the work spent differs (see
// PlanStats).
//
// The heavy lifting lives in the internal packages (planner, roofline
// GPU simulator, LP/ILP solvers, tiny real-transformer quality backend);
// this package exposes the workflow a downstream user needs.
package splitquant

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/workload"
)

// Sentinel errors. All errors returned by this package wrap one of these
// (or an internal detail error) so callers can classify failures with
// errors.Is instead of string matching.
var (
	// ErrUnknownModel is returned by New when the model name matches no
	// built-in architecture (see Models).
	ErrUnknownModel = model.ErrUnknownModel
	// ErrUnknownMethod is returned by New when WithMethod names no
	// planning algorithm.
	ErrUnknownMethod = core.ErrUnknownMethod
	// ErrInfeasible is returned by Plan when no configuration of the
	// cluster can hold the model for the requested batch.
	ErrInfeasible = core.ErrInfeasible
	// ErrEmptyWorkload is returned by Plan when the workload carries no
	// request profile (e.g. a zero Workload{}).
	ErrEmptyWorkload = errors.New("splitquant: empty workload")
)

// GPU identifies a supported accelerator class.
type GPU string

// Supported GPU classes.
const (
	T4   GPU = "T4-16G"
	P100 GPU = "P100-12G"
	V100 GPU = "V100-32G"
	A100 GPU = "A100-40G"
)

// Node describes one machine: count identical GPUs joined by NVLink.
type Node struct {
	// Name identifies the node (unique within a cluster).
	Name string
	// GPU is the accelerator class on the node.
	GPU GPU
	// Count is the number of GPUs.
	Count int
	// SpeedScale and MemScale, when in (0, 1), derate the node's GPUs —
	// co-located tenants, MIG slices, or throttling. Zero means full
	// capability.
	SpeedScale float64
	MemScale   float64
}

// ClusterSpec describes a heterogeneous cluster.
type ClusterSpec struct {
	// Name labels the cluster.
	Name string
	// Nodes lists the member machines.
	Nodes []Node
	// InterconnectGbps is the node-to-node fabric speed in gigabits per
	// second (e.g. 100 or 800); 0 defaults to 800.
	InterconnectGbps float64
}

// Preset returns cluster n of the paper's Table III (1-10).
func Preset(n int) ClusterSpec {
	c, err := cluster.Preset(n)
	if err != nil {
		panic(err)
	}
	spec := ClusterSpec{Name: c.Name, InterconnectGbps: cluster.GbpsFromBandwidth(c.InterBW)}
	for _, nd := range c.Nodes {
		spec.Nodes = append(spec.Nodes, Node{Name: nd.Name, GPU: GPU(nd.Class), Count: nd.Count})
	}
	return spec
}

// build converts the spec to the internal representation.
func (cs ClusterSpec) build() (*cluster.Cluster, error) {
	gbps := cs.InterconnectGbps
	switch {
	case !(gbps >= 0):
		return nil, fmt.Errorf("splitquant: InterconnectGbps must be >= 0, got %v", gbps)
	case gbps == 0:
		gbps = 800
	}
	c := &cluster.Cluster{Name: cs.Name, InterBW: cluster.BandwidthFromGbps(gbps)}
	if c.Name == "" {
		c.Name = "cluster"
	}
	for _, n := range cs.Nodes {
		if _, err := gpu.Lookup(gpu.DeviceClass(n.GPU)); err != nil {
			return nil, fmt.Errorf("splitquant: %w", err)
		}
		c.Nodes = append(c.Nodes, cluster.Node{
			Name: n.Name, Class: gpu.DeviceClass(n.GPU), Count: n.Count, IntraBW: cluster.NVLinkBW,
			SpeedScale: n.SpeedScale, MemScale: n.MemScale,
		})
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("splitquant: %w", err)
	}
	return c, nil
}

// Models returns the names of the built-in model architectures.
func Models() []string { return model.Names() }

// Method selects the planning algorithm.
type Method string

// Planning methods.
const (
	// MethodHeuristic (the default) runs the adaptive-quantization
	// multi-start heuristic with bitwidth-transfer local search.
	MethodHeuristic Method = Method(core.MethodHeuristic)
	// MethodILP additionally polishes the shortlisted configurations with
	// the branch-and-bound integer program (§IV-C) — slower, occasionally
	// better.
	MethodILP Method = Method(core.MethodILP)
	// MethodAdabits is the pure adaptive-quantization ablation.
	MethodAdabits Method = Method(core.MethodAdabits)
	// MethodUniform is the even-split single-bitwidth baseline.
	MethodUniform Method = Method(core.MethodUniform)
	// MethodHet is the workload-balanced uniform-precision baseline.
	MethodHet Method = Method(core.MethodHet)
)

// Option customizes planning. Passed to New or Fork it sets a System
// default; passed to an individual Plan/PlanContext call (see
// PlanOption) it overrides the default for that solve only.
type Option func(*options)

// PlanOption is an Option applied to a single planning call. The two
// names are one type: every With… constructor works in both positions.
type PlanOption = Option

type options struct {
	theta       float64
	method      core.Method
	qualityCap  float64
	orderings   int
	parallelism int
	progress    func(PlanProgress)
}

// WithTheta sets the quality scalar θ balancing throughput against model
// quality (default 10; larger favors quality).
func WithTheta(theta float64) Option { return func(o *options) { o.theta = theta } }

// WithMethod selects the planning algorithm: MethodHeuristic (the
// default), MethodILP, MethodAdabits, MethodUniform, or MethodHet. An
// unknown method makes New fail with ErrUnknownMethod.
func WithMethod(m Method) Option {
	return func(o *options) { o.method = core.Method(m) }
}

// WithParallelism bounds the planner's worker pool. The independent
// candidate configurations of one Plan call are solved concurrently on
// up to n goroutines: 0 (the default) uses one worker per available CPU,
// 1 forces a sequential search. Plans are bit-identical at every
// setting; only wall-clock time changes.
func WithParallelism(n int) Option { return func(o *options) { o.parallelism = n } }

// WithProgress installs a live planning progress hook, called once per
// finished candidate configuration (and per ILP polish solve). Calls are
// serialized even under parallel planning; the hook must return quickly
// and must not call back into the System.
func WithProgress(fn func(PlanProgress)) Option { return func(o *options) { o.progress = fn } }

// WithQualityFloor constrains plans to at most the given indicated
// quality degradation Σω (see Deployment.QualityPenalty).
func WithQualityFloor(cap float64) Option { return func(o *options) { o.qualityCap = cap } }

// WithOrderingLimit caps device-ordering enumeration (default 8).
func WithOrderingLimit(n int) Option { return func(o *options) { o.orderings = n } }

// System couples a model with a cluster and owns the planner state:
// default options, the quantization-quality indicator, and the plan
// cache (with its cost cache) shared with its Fork variants. A System is
// safe for concurrent use.
type System struct {
	spec *model.Spec
	clu  *cluster.Cluster
	opts options
	// ind is the quality indicator QualityOf and PlanDisaggregated read;
	// plans answers or solves every plan of the Fork family.
	ind   *core.Indicator
	plans *core.PlanCache
}

// New builds a System for the named model (see Models) on the cluster.
func New(modelName string, cs ClusterSpec, opts ...Option) (*System, error) {
	spec, err := model.Lookup(modelName)
	if err != nil {
		return nil, err
	}
	return assemble(spec, cs, options{theta: 10, method: core.MethodHeuristic}, opts, nil)
}

// Fork derives a System for the same model on a different cluster (or
// with different default options), sharing the parent's plan cache (and
// its cost cache) and quality indicator. Planning on a Fork after a
// preemption or restore therefore reuses every plan and per-device cost
// the family has already computed.
func (s *System) Fork(cs ClusterSpec, opts ...Option) (*System, error) {
	return assemble(s.spec, cs, s.opts, opts, s)
}

// assemble builds a System from resolved inputs, sharing family's
// indicator and plan cache; family == nil starts a new family.
func assemble(spec *model.Spec, cs ClusterSpec, base options, opts []Option, family *System) (*System, error) {
	clu, err := cs.build()
	if err != nil {
		return nil, err
	}
	o := base
	for _, fn := range opts {
		fn(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	if family == nil {
		family = &System{ind: core.ProfileIndicator(spec, core.CandidateBits, quant.Deterministic), plans: core.NewPlanCache(0)}
	}
	return &System{spec: spec, clu: clu, opts: o, ind: family.ind, plans: family.plans}, nil
}

// validate rejects an unknown planning method with ErrUnknownMethod,
// and a negative or non-finite θ or quality floor.
func (o options) validate() error {
	if !core.ValidMethod(o.method) {
		return fmt.Errorf("splitquant: %w %q (valid: %s, %s, %s, %s, %s)", ErrUnknownMethod, o.method,
			MethodHeuristic, MethodILP, MethodAdabits, MethodUniform, MethodHet)
	}
	if !(o.theta >= 0 && o.theta <= math.MaxFloat64) { // NaN and +Inf fail too
		return fmt.Errorf("splitquant: theta %v is not a finite non-negative number", o.theta)
	}
	if !(o.qualityCap >= 0 && o.qualityCap <= math.MaxFloat64) {
		return fmt.Errorf("splitquant: quality floor %v is not a finite non-negative number", o.qualityCap)
	}
	return nil
}

// Model returns the architecture name served by the system.
func (s *System) Model() string { return s.spec.Name }

// Cluster returns a human-readable cluster composition.
func (s *System) Cluster() string { return s.clu.String() }

// Workload is a named offline request profile.
type Workload struct {
	profile *workload.Profile
	// ChunkLen is the chunked-prefill granularity (default 2048).
	ChunkLen int
	// MaxPositions caps padded prompt + generation (default: model max).
	MaxPositions int
}

// Summarization returns a CNN-DailyMail-shaped profile (long outputs).
func Summarization(seed uint64) Workload { return named("summarization", seed) }

// LongContext returns a LooGLE-shaped profile (very long prompts, short
// outputs).
func LongContext(seed uint64) Workload { return named("longcontext", seed) }

// Chat returns a ShareGPT-shaped conversational profile.
func Chat(seed uint64) Workload { return named("chat", seed) }

// named wraps one of workload.Named's profiles; the names above are all
// known to it.
func named(name string, seed uint64) Workload {
	p, err := workload.Named(name, seed)
	if err != nil {
		panic(err)
	}
	return Workload{profile: p}
}

// FixedWorkload returns n identical requests (promptLen in, outputLen
// out) — the DeepSpeed-style synthetic benchmark.
func FixedWorkload(n, promptLen, outputLen int) Workload {
	return Workload{profile: workload.Fixed(n, promptLen, outputLen)}
}

// Name returns the workload's profile name.
func (w Workload) Name() string { return w.profile.Name }

// ConfigStat records the solver work spent on one explored candidate
// configuration (device ordering plus micro-batch pair).
type ConfigStat struct {
	// Key is the canonical configuration key: ordered device IDs joined
	// by ">" plus the micro-batch pair, e.g. "a/tp1-0>b/tp1-0|eta=4|xi=8".
	Key string
	// Feasible reports whether the configuration admitted any assignment.
	Feasible bool
	// Objective is the best planning objective found for the
	// configuration (+Inf when infeasible).
	Objective float64
	// ILPSolves and Nodes count branch-and-bound work (zero during the
	// heuristic sweep).
	ILPSolves int
	Nodes     int
	// Seconds is wall-clock time spent on the configuration.
	Seconds float64
	// Pruned reports that a bound proved the configuration cannot win.
	// In the search, its lower bound proved it could not enter the
	// shortlist, so no solver work was spent on it. In the ILP polish
	// (ILPSolves > 0), branch and bound proved that no plan at the
	// layer grouping beats the heuristic's best objective.
	Pruned bool
}

// Planning progress phases.
const (
	// PhaseSearch is the heuristic sweep over candidate configurations.
	PhaseSearch = core.PhaseSearch
	// PhasePolish is the ILP refinement of the shortlisted candidates.
	PhasePolish = core.PhasePolish
)

// PlanProgress is one live planning progress event (see WithProgress).
type PlanProgress struct {
	// Phase is PhaseSearch or PhasePolish.
	Phase string
	// Done and Total count configurations within the phase.
	Done, Total int
	// BestObjective is the best feasible objective seen so far (+Inf
	// until the first feasible configuration).
	BestObjective float64
	// Config describes the configuration that just finished.
	Config ConfigStat
}

// Plan synthesizes a batch of batchSize concurrent requests from the
// workload and jointly optimizes quantization bitwidths, layer
// partitioning and micro-batch sizes for it. Trailing PlanOptions
// override the System defaults for this call only. A problem the Fork
// family already solved (same cluster, batch and plan-changing options)
// is answered from its plan cache without searching: Stats reports
// Reused and the progress hook sees no events. It is
// PlanContext(context.Background(), ...).
func (s *System) Plan(w Workload, batchSize int, opts ...PlanOption) (*Deployment, error) {
	return s.PlanContext(context.Background(), w, batchSize, opts...)
}

// PlanContext is Plan with cooperative cancellation. Cancelling ctx (or
// exceeding its deadline) stops in-flight solver work promptly: when the
// search has already found a feasible plan the best incumbent is
// returned (Deployment.Stats reports Cancelled=true); before that,
// PlanContext returns ctx.Err().
func (s *System) PlanContext(ctx context.Context, w Workload, batchSize int, opts ...PlanOption) (*Deployment, error) {
	batch, err := s.synthesize(w, batchSize)
	if err != nil {
		return nil, err
	}
	o, err := s.resolve(opts)
	if err != nil {
		return nil, err
	}
	p, rep, hit, err := s.plans.Plan(ctx, s.spec, s.clu, batch, s.coreOptions(o))
	if err != nil {
		return nil, err
	}
	return &Deployment{sys: s, plan: p, batch: batch, report: rep, reused: hit}, nil
}

// resolve applies per-call options on top of the System defaults.
func (s *System) resolve(opts []PlanOption) (options, error) {
	o := s.opts
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o, o.validate()
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

// synthesize turns a workload profile into the planner's batch shape.
func (s *System) synthesize(w Workload, batchSize int) (workload.Batch, error) {
	if w.profile == nil {
		return workload.Batch{}, ErrEmptyWorkload
	}
	chunk := w.ChunkLen
	if chunk == 0 {
		chunk = 2048
	}
	maxPos := w.MaxPositions
	if maxPos == 0 || maxPos > s.spec.MaxPos {
		maxPos = s.spec.MaxPos
	}
	return workload.Synthesize(w.profile, batchSize, chunk, maxPos)
}

// QualityOf returns the indicated quality degradation Σω of a
// deployment's bit assignment — the currency of WithQualityFloor.
func (s *System) QualityOf(d *Deployment) float64 {
	return s.ind.Total(d.plan.Bits())
}
