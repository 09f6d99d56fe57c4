package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/ilp"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Method selects the planning algorithm.
type Method string

// Planning methods.
const (
	// MethodILP shortlists configurations with the heuristic, then
	// polishes the best ones with the branch-and-bound ILP (§IV-C).
	MethodILP Method = "ilp"
	// MethodHeuristic uses only adabits + bitwidth transfer.
	MethodHeuristic Method = "heuristic"
	// MethodAdabits is the pure-adaptive-quantization ablation (Fig. 12).
	MethodAdabits Method = "adabits"
	// MethodUniform is the Uniform baseline (even split, one bitwidth).
	MethodUniform Method = "uniform"
	// MethodHet is the workload-balanced uniform-precision baseline.
	MethodHet Method = "het"
)

// Options configures the Assigner.
type Options struct {
	// Bits is the candidate bitwidth set (default CandidateBits).
	Bits []int
	// Theta is the quality scalar θ of Eq. 4 (default 10). Uniform and
	// Het rank by latency alone and ignore it.
	Theta float64
	// BitKV is the KV-cache bitwidth (default 16).
	BitKV int
	// GroupSize groups layers for the ILP (0 = auto, targeting ≤ 12
	// groups; 1 = full problem).
	GroupSize int
	// TimeLimit bounds each ILP solve (default 60 s, as in §VI-F).
	TimeLimit time.Duration
	// MaxNodes bounds branch-and-bound nodes per solve (default 200).
	MaxNodes int
	// Method selects the algorithm (default MethodILP).
	Method Method
	// OrderingLimit caps device-ordering enumeration (default 8).
	OrderingLimit int
	// MicroBatches lists candidate micro-batch sizes for both phases
	// (default {B/8, B/4} clamped to ≥ 1, deduplicated).
	MicroBatches []int
	// ILPCandidates is how many shortlisted configurations get an ILP
	// polish under MethodILP (default 3).
	ILPCandidates int
	// QualityCap, when > 0, constrains Σω ≤ cap (§VI-C quality floor).
	// Uniform and Het ignore it.
	QualityCap float64
	// MeshFilter, when non-nil, restricts the device meshes considered
	// (e.g. force TP4 or pure pipeline parallelism, as in Table IV).
	MeshFilter func([]cluster.Device) bool
	// PrefillOnlyObjective drops the decode terms from the planning
	// objective (memory accounting stays intact) — the phase-blind
	// ablation D1 of DESIGN.md, modeling prior encoder-oriented
	// partitioners. It is also how a disaggregated prefill pool is
	// planned: its stages never decode.
	PrefillOnlyObjective bool
	// DecodeOnlyObjective is the mirror image: the prefill terms are
	// dropped from the objective, leaving pure per-token decode latency.
	// A disaggregated decode pool is planned with this set — it receives
	// sessions whose prefill already ran elsewhere (KV arrives by
	// handoff), so prompt-processing speed is irrelevant to it.
	DecodeOnlyObjective bool
	// Costs, when non-nil, memoizes per-(device, bitwidth, phase, shape)
	// latency evaluations across configurations and across searches (see
	// CostCache). Sharing one cache between re-plans of a churning fleet
	// is safe — cached values are bitwise-identical to direct evaluation —
	// and is where most of Replan's speedup comes from.
	Costs *CostCache
	// Parallelism bounds the worker pool that fans the independent
	// (mesh, ordering, η, ξ) candidate solves across CPUs: 0 means one
	// worker per available CPU (runtime.GOMAXPROCS), 1 forces a
	// sequential search. The merged result is bit-identical at every
	// setting — candidates are ranked by (objective, canonical
	// enumeration order) regardless of completion order.
	Parallelism int
	// Progress, when non-nil, receives one event per configuration,
	// evaluated or pruned (and per ILP polish solve). Calls are
	// serialized; the hook must be fast and must not call back into the
	// planner.
	Progress func(Progress)
}

// baseline reports whether m is one of the paper's baselines, Uniform
// and Het. They rank by latency alone (θ = 0), ignore the quality cap,
// and run one micro-batch per stage.
func (m Method) baseline() bool { return m == MethodUniform || m == MethodHet }

// builders holds the methods whose step for one configuration is a
// single constructed assignment. The joint methods, ILP and heuristic,
// run the multi-start bitwidth-transfer search instead (see bestStart).
var builders = map[Method]func(*orderingCosts, *Indicator) (*assignment, error){
	MethodAdabits: adabits,
	MethodUniform: uniform,
	MethodHet:     het,
}

// CandidateBits is the default candidate weight bitwidth set, the one
// every service path plans over. Callers must not modify it.
var CandidateBits = []int{3, 4, 8, 16}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if len(o.Bits) == 0 {
		o.Bits = CandidateBits
	}
	if o.Method == "" {
		o.Method = MethodILP
	}
	if o.Method.baseline() {
		o.Theta, o.QualityCap = 0, 0
	} else if o.Theta == 0 {
		o.Theta = 10
	}
	if o.BitKV == 0 {
		o.BitKV = 16
	}
	if o.TimeLimit == 0 {
		o.TimeLimit = 60 * time.Second
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 200
	}
	if o.OrderingLimit == 0 {
		o.OrderingLimit = 8
	}
	if o.ILPCandidates == 0 {
		o.ILPCandidates = 3
	}
	return o
}

// Report summarizes one planning run.
type Report struct {
	// Configs is the number of (mesh, ordering, η, ξ) combinations
	// evaluated. Configs + PrunedConfigs is the size of the enumeration,
	// and a completed search has len(ConfigStats) == Configs +
	// PrunedConfigs + ILPSolves.
	Configs int
	// ILPSolves and Nodes count branch-and-bound work.
	ILPSolves int
	Nodes     int
	// SolveSeconds is total planning wall-clock time.
	SolveSeconds float64
	// Proved reports whether the final ILP proved optimality for its
	// configuration.
	Proved bool
	// Cancelled reports that the context was cancelled (or its deadline
	// exceeded) mid-plan and the returned plan is the best incumbent
	// found so far, not the full search result.
	Cancelled bool
	// WarmStarted reports that the search was seeded from a previous
	// plan (see Assigner.Replan): the incumbent's objective primed the
	// pruning threshold and candidate evaluation order.
	WarmStarted bool
	// PrunedConfigs counts configurations the search skipped because
	// their optimistic bound proved they could not enter the shortlist,
	// with or without an incumbent. They appear in ConfigStats with
	// Pruned set.
	PrunedConfigs int
	// CostCacheHits and CostCacheMisses are the Options.Costs counter
	// deltas attributable to this solve (approximate when several
	// searches share one cache concurrently; zero without a cache).
	CostCacheHits, CostCacheMisses int64
	// ConfigStats holds per-configuration solver statistics in canonical
	// enumeration order (search sweep first, then one entry per ILP
	// polish solve). Entries for configurations skipped due to
	// cancellation are absent.
	ConfigStats []ConfigStat
}

// Assigner is SplitQuant's offline planner.
type Assigner struct {
	spec *model.Spec
	clu  *cluster.Cluster
	ind  *Indicator
	opts Options
	// idle holds the bitwidth-transfer searches not in use, so the
	// workers reuse their buffers across configurations. It is a plain
	// list, not a sync.Pool, so nothing outlives the assigner.
	idleMu sync.Mutex
	idle   []*transferSearch
}

// New builds an assigner. The indicator must cover exactly the model's
// layers and the option bit set. The method is validated here, so an
// unknown Options.Method fails fast instead of silently planning with a
// fallback algorithm.
func New(spec *model.Spec, clu *cluster.Cluster, ind *Indicator, opts Options) (*Assigner, error) {
	opts = opts.withDefaults()
	if !ValidMethod(opts.Method) {
		return nil, fmt.Errorf("core: %w %q (valid: %v)", ErrUnknownMethod, opts.Method, validMethods)
	}
	if err := clu.Validate(); err != nil {
		return nil, err
	}
	if ind.Layers() != spec.Layers {
		return nil, fmt.Errorf("core: indicator covers %d layers, model has %d", ind.Layers(), spec.Layers)
	}
	for _, b := range opts.Bits {
		if ind.bitIndex(b) < 0 {
			return nil, fmt.Errorf("core: indicator missing bitwidth %d", b)
		}
	}
	return &Assigner{spec: spec, clu: clu, ind: ind, opts: opts}, nil
}

// candidateMicroBatches returns the pruned micro-batch size set 𝒮:
// powers-of-two fractions of B from B/8 up to the whole batch.
func candidateMicroBatches(B int) []int {
	var out []int
	for _, d := range []int{8, 4, 2, 1} {
		if v := max(1, B/d); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// groupSizeFor returns the effective ILP group size.
func (a *Assigner) groupSizeFor() int {
	if a.opts.GroupSize > 0 {
		return a.opts.GroupSize
	}
	gs := (a.spec.Layers + 11) / 12
	if gs < 1 {
		gs = 1
	}
	return gs
}

// candidate couples a configuration with its heuristic solution.
type candidate struct {
	oc  *orderingCosts
	as  *assignment
	ev  evaluation
	key string
}

// planConfig is one (ordering, η, ξ) combination in canonical
// enumeration order. The enumeration index doubles as the deterministic
// tie-break: candidates with equal objectives are ranked by it, which
// reproduces exactly the stable ordering of a sequential scan.
type planConfig struct {
	devs    []cluster.Device
	eta, xi int
}

// key renders the canonical configuration key.
func (c planConfig) key() string { return configKey(c.devs, c.eta, c.xi) }

// searchConfigs enumerates the method's candidate space in canonical
// order. The joint methods try every mesh, ordering and (η, ξ) pair.
// The baselines do not co-tune micro-batch sizes (that is part of
// SplitQuant's contribution): they run the standard engine default of
// one micro-batch per pipeline stage (η = ξ = B / #stages) unless
// Options.MicroBatches says otherwise. Uniform is the engine default of
// pure pipeline parallelism over the devices as given, so it never
// permutes a mesh, and without a MeshFilter (Table IV's explicit TP
// configurations) it plans the single mesh clu.Devices().
func (a *Assigner) searchConfigs(B int) []planConfig {
	method := a.opts.Method
	meshes := a.clu.Meshes()
	if method == MethodUniform && a.opts.MeshFilter == nil {
		meshes = [][]cluster.Device{a.clu.Devices()}
	}
	mbs := a.opts.MicroBatches
	if len(mbs) == 0 && !method.baseline() {
		mbs = candidateMicroBatches(B)
	}
	var out []planConfig
	for _, mesh := range meshes {
		if len(mesh) > a.spec.Layers {
			continue // more stages than layers
		}
		if a.opts.MeshFilter != nil && !a.opts.MeshFilter(mesh) {
			continue
		}
		orderings := [][]cluster.Device{mesh}
		if method != MethodUniform {
			orderings = cluster.Orderings(mesh, a.opts.OrderingLimit)
		}
		for _, devs := range orderings {
			mbs := mbs
			if len(mbs) == 0 { // a baseline: one micro-batch per stage
				mbs = []int{max(1, B/len(devs))}
			}
			for _, eta := range mbs {
				for _, xi := range mbs {
					out = append(out, planConfig{devs: devs, eta: eta, xi: xi})
				}
			}
		}
	}
	return out
}

// buildConfigCosts assembles (and for the D1 ablation, masks) the cost
// tables of one candidate configuration.
func (a *Assigner) buildConfigCosts(cfg planConfig, batch workload.Batch) *orderingCosts {
	oc := buildCosts(a.spec, a.clu, cfg.devs, a.opts.Bits, batch, cfg.eta, cfg.xi, a.opts.BitKV, a.opts.Costs)
	if a.opts.PrefillOnlyObjective {
		for j := range oc.dec {
			for bi := range oc.dec[j] {
				oc.dec[j][bi] = 0
			}
			oc.commDec[j] = 0
		}
		oc.aDec = 0
	}
	if a.opts.DecodeOnlyObjective {
		for j := range oc.pre {
			for bi := range oc.pre[j] {
				oc.pre[j][bi] = 0
			}
			oc.commPre[j] = 0
		}
		oc.aPre = 0
	}
	return oc
}

// Plan computes a deployment plan for one synthesized batch. The
// candidate configurations are solved on a bounded worker pool
// (Options.Parallelism), skipping those whose optimistic bound cannot
// reach the shortlist (see search), and merged deterministically, so
// the plan is bit-identical to a sequential, exhaustive run.
//
// Cancelling ctx (or exceeding its deadline) stops all in-flight solves
// promptly. When at least one feasible candidate has already been found
// the best incumbent is returned with Report.Cancelled set — the same
// graceful degradation as the ILP TimeLimit; otherwise Plan returns
// ctx.Err().
func (a *Assigner) Plan(ctx context.Context, batch workload.Batch) (*plan.Plan, *Report, error) {
	return a.Replan(ctx, batch, nil)
}

// Replan is Plan warm-started from a previous deployment. The incumbent
// plan is adapted onto the current topology (preempted devices donate
// their layers to the nearest surviving stage); its objective seeds the
// search's pruning threshold, and configurations are evaluated closest
// to it first. Pruning is shortlist-safe either way (see search), so a
// completed Replan returns a plan bit-identical to Plan on the same
// inputs; only the work spent differs (see Report.WarmStarted,
// PrunedConfigs, CostCacheHits).
//
// The incumbent inc is the previous plan, live or deserialized; it need
// not be bound to the current cluster and may come from a larger or
// smaller one. Its devices are matched to the current topology by ID,
// and layers of stages whose device no longer exists are merged into
// the nearest surviving stage before it is evaluated. A nil incumbent,
// or one that cannot be expressed on the current cluster (no surviving
// devices, changed bit set) or is infeasible under it, searches exactly
// as Plan does.
func (a *Assigner) Replan(ctx context.Context, batch workload.Batch, inc *plan.Plan) (*plan.Plan, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := batch.Validate(); err != nil {
		return nil, nil, err
	}
	rep := &Report{}
	var hits0, misses0 int64
	if c := a.opts.Costs; c != nil {
		hits0, misses0 = c.Hits(), c.Misses()
	}
	p, err := a.solve(ctx, batch, inc, rep)
	if c := a.opts.Costs; c != nil {
		rep.CostCacheHits = c.Hits() - hits0
		rep.CostCacheMisses = c.Misses() - misses0
	}
	rep.SolveSeconds = time.Since(start).Seconds()
	if p != nil {
		p.SolveSeconds = rep.SolveSeconds
	}
	return p, rep, err
}

// solve runs the search over the method's configurations, seeded by the
// incumbent plan inc when there is one (see Replan).
func (a *Assigner) solve(ctx context.Context, batch workload.Batch, inc *plan.Plan, rep *Report) (*plan.Plan, error) {
	sink := newProgressSink(a.opts.Progress, math.Inf(1))
	return a.search(ctx, batch, a.searchConfigs(batch.Size), inc, rep, sink, a.opts.Theta)
}

// admissible reports whether an evaluated assignment may be planned:
// feasible, and within the quality cap when one is set.
func (a *Assigner) admissible(ev evaluation) bool {
	return ev.Feasible && !(a.opts.QualityCap > 0 && ev.Quality > a.opts.QualityCap+1e-9)
}

// solveConfig runs the heuristic for one configuration with prebuilt
// cost tables.
func (a *Assigner) solveConfig(oc *orderingCosts, key string, theta float64) (*candidate, ConfigStat) {
	stat := ConfigStat{Key: key, Objective: math.Inf(1)}
	var cand *candidate
	if as, ev := a.bestStart(oc, theta); as != nil && a.admissible(ev) {
		cand = &candidate{oc: oc, as: as, ev: ev, key: key}
		stat.Feasible = true
		stat.Objective = ev.Objective
	}
	return cand, stat
}

// searchChunk is how many configurations the search evaluates between
// threshold updates. It is a constant, not the worker count, so the
// evaluated set — and the reported pruning accounting — is
// machine-independent.
const searchChunk = 8

// search is the phase-1 sweep: one bound-ordered search over every
// candidate configuration. It builds each configuration's cost tables
// and optimistic bound, then evaluates in chunks the configurations
// whose bound reaches the admission threshold, tightening the threshold
// to the K-th best candidate objective after every chunk (K is the
// shortlist depth: the ILP polish count, else 1). It stops at a
// fixpoint where no unevaluated bound reaches the K-th best objective,
// so no skipped configuration could enter the shortlist and the plan is
// the one an exhaustive sweep would return.
//
// Only the start depends on prev. A previous plan that adapts onto the
// current configurations and stays admissible under them seeds the
// threshold with its objective, and chunks run closest to it first.
// Otherwise the threshold starts at +Inf and chunks run in ascending
// bound order (ties by enumeration index).
func (a *Assigner) search(ctx context.Context, batch workload.Batch, configs []planConfig,
	prev *plan.Plan, rep *Report, sink *progressSink, theta float64) (*plan.Plan, error) {

	ocs := make([]*orderingCosts, len(configs))
	bounds := make([]float64, len(configs))
	runPool(ctx, a.parallelism(), len(configs), func(i int) {
		if ctx.Err() != nil {
			return
		}
		ocs[i] = a.buildConfigCosts(configs[i], batch)
		bounds[i] = optimisticBound(ocs[i], a.ind, theta)
	})
	if ctx.Err() != nil {
		return a.finishJoint(ctx, nil, batch, rep, sink, theta)
	}

	threshold := math.Inf(1)
	rank := make([]int, len(configs))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(x, y int) bool { return bounds[rank[x]] < bounds[rank[y]] })
	if seed := adaptIncumbent(prev, configs, a.ind, a.opts.Bits); seed != nil {
		if ev := evaluate(seed.as, ocs[seed.cfg], a.ind, theta); a.admissible(ev) {
			rep.WarmStarted = true
			threshold = ev.Objective
			rank = warmOrder(rank, configs, seed.cfg)
		}
	}

	K := 1
	if a.opts.Method == MethodILP {
		K = a.opts.ILPCandidates
	}
	type searchResult struct {
		done bool
		cand *candidate
		stat ConfigStat
	}
	results := make([]searchResult, len(configs))
	// kth re-derives the K-th best evaluated candidate objective.
	kth := func() float64 {
		var objs []float64
		for i := range results {
			if results[i].cand != nil {
				objs = append(objs, results[i].cand.ev.Objective)
			}
		}
		return kthBestObjective(objs, K)
	}

	sink.startPhase(PhaseSearch, len(configs))
	for ctx.Err() == nil {
		var chunk []int
		for _, i := range rank {
			if !results[i].done && bounds[i] <= threshold+boundEps {
				if chunk = append(chunk, i); len(chunk) == searchChunk {
					break
				}
			}
		}
		if len(chunk) == 0 {
			// Fixpoint: a seeded threshold below the K-th best objective
			// may have excluded a configuration the shortlist needs, so
			// re-admit at the K-th best until nothing more qualifies.
			if k := kth(); k > threshold {
				threshold = k
				continue
			}
			break
		}
		runPool(ctx, a.parallelism(), len(chunk), func(c int) {
			if ctx.Err() != nil {
				return
			}
			i := chunk[c]
			t0 := time.Now()
			cand, stat := a.solveConfig(ocs[i], configs[i].key(), theta)
			stat.Seconds = time.Since(t0).Seconds()
			results[i] = searchResult{done: true, cand: cand, stat: stat}
			sink.finished(stat)
		})
		if k := kth(); k < threshold {
			threshold = k
		}
	}

	// Canonical-order merge, identical regardless of completion order.
	// Pruned configurations are recorded (and fired to the progress sink)
	// so ConfigStats covers the whole enumeration; configurations skipped
	// by cancellation are absent.
	var cands []candidate
	for i := range results {
		if results[i].done {
			rep.Configs++
			rep.ConfigStats = append(rep.ConfigStats, results[i].stat)
			if results[i].cand != nil {
				cands = append(cands, *results[i].cand)
			}
			continue
		}
		if ctx.Err() == nil {
			stat := ConfigStat{Key: configs[i].key(), Objective: math.Inf(1), Pruned: true}
			rep.PrunedConfigs++
			rep.ConfigStats = append(rep.ConfigStats, stat)
			sink.finished(stat)
		}
	}
	return a.finishJoint(ctx, cands, batch, rep, sink, theta)
}

// finishJoint ranks the merged candidates, runs the ILP polish, and
// converts the winner to a plan.
func (a *Assigner) finishJoint(ctx context.Context, cands []candidate, batch workload.Batch,
	rep *Report, sink *progressSink, theta float64) (*plan.Plan, error) {

	if len(cands) == 0 {
		if err := ctx.Err(); err != nil {
			rep.Cancelled = true
			return nil, err
		}
		return nil, fmt.Errorf("core: no feasible configuration for %s on %s (B=%d): %w",
			a.spec.Name, a.clu.Name, batch.Size, ErrInfeasible)
	}
	// Shortlist by heuristic objective (stable: ties keep enumeration
	// order — the canonical tie-break).
	sortCandidates(cands)
	best := cands[0]
	method := string(a.opts.Method)

	if a.opts.Method == MethodILP && ctx.Err() == nil {
		var err error
		best, err = a.polishShortlist(ctx, cands, best, rep, sink, theta)
		if err != nil {
			return nil, err
		}
	}
	rep.Cancelled = ctx.Err() != nil

	p, err := toPlan(best.as, best.oc, a.ind, theta, method, a.opts.BitKV)
	if err != nil {
		return nil, err
	}
	p.Model = a.spec.Name
	return p, nil
}

// polishShortlist is phase 2: the ILP refinement of the shortlisted
// candidates, fanned across the pool. The merge replays the sequential
// accept-if-better scan in shortlist order, so the winning candidate
// (and Report.Proved) match a sequential run exactly.
func (a *Assigner) polishShortlist(ctx context.Context, cands []candidate, best candidate,
	rep *Report, sink *progressSink, theta float64) (candidate, error) {

	limit := a.opts.ILPCandidates
	if limit > len(cands) {
		limit = len(cands)
	}
	type polishResult struct {
		done bool
		as   *assignment
		sol  *ilp.Solution
		err  error
		stat ConfigStat
	}
	polished := make([]polishResult, limit)
	sink.startPhase(PhasePolish, limit)
	runPool(ctx, a.parallelism(), limit, func(c int) {
		if ctx.Err() != nil {
			return
		}
		t0 := time.Now()
		cfg := ilpConfig{
			GroupSize:  a.groupSizeFor(),
			TimeLimit:  a.opts.TimeLimit,
			MaxNodes:   a.opts.MaxNodes,
			QualityCap: a.opts.QualityCap,
			WarmStart:  cands[c].as,
		}
		as, sol, err := solveILP(ctx, cands[c].oc, a.ind, theta, cfg)
		stat := ConfigStat{Key: cands[c].key, ILPSolves: 1, Objective: math.Inf(1)}
		if sol != nil {
			stat.Nodes = sol.Nodes
		}
		if err == nil && as != nil {
			if ev := evaluate(as, cands[c].oc, a.ind, theta); ev.Feasible {
				stat.Feasible = true
				stat.Objective = ev.Objective
			}
		}
		stat.Seconds = time.Since(t0).Seconds()
		polished[c] = polishResult{done: true, as: as, sol: sol, err: err, stat: stat}
		sink.finished(stat)
	})
	for c := 0; c < limit; c++ {
		if !polished[c].done {
			continue
		}
		if polished[c].err != nil {
			return best, polished[c].err
		}
		rep.ILPSolves++
		rep.ConfigStats = append(rep.ConfigStats, polished[c].stat)
		sol := polished[c].sol
		if sol != nil {
			rep.Nodes += sol.Nodes
		}
		as := polished[c].as
		if as == nil {
			continue
		}
		ev := evaluate(as, cands[c].oc, a.ind, theta)
		if ev.Feasible && ev.Objective < best.ev.Objective-1e-12 {
			best = candidate{oc: cands[c].oc, as: as, ev: ev, key: cands[c].key}
			rep.Proved = sol != nil && sol.Proved
		}
	}
	return best, nil
}

// bestStart builds the method's solution for one configuration. A
// method in builders returns its builder's assignment (the Fig. 12
// adabits ablation and the two baselines). The joint methods run the
// bitwidth-transfer local search from every start point
// (transferStarts) and keep the best. It returns the assignment with its
// evaluation, or nil when nothing fits. One idle transferSearch serves
// every start.
func (a *Assigner) bestStart(oc *orderingCosts, theta float64) (*assignment, evaluation) {
	if build := builders[a.opts.Method]; build != nil {
		as, err := build(oc, a.ind)
		if err != nil {
			return nil, evaluation{}
		}
		return as, evaluate(as, oc, a.ind, theta)
	}
	var best *assignment
	bestEv := evaluation{Objective: math.Inf(1)}
	search := a.takeSearch()
	defer a.releaseSearch(search)
	search.configure(oc, a.ind, theta)
	for _, s := range a.transferStarts(oc) {
		if ev := search.transfer(s, 0, a.opts.QualityCap); a.admissible(ev) && ev.Objective < bestEv.Objective {
			best, bestEv = search.cur.clone(), ev
		}
	}
	return best, bestEv
}

// takeSearch returns an idle bitwidth-transfer search, or a new one.
func (a *Assigner) takeSearch() *transferSearch {
	a.idleMu.Lock()
	defer a.idleMu.Unlock()
	if n := len(a.idle); n > 0 {
		s := a.idle[n-1]
		a.idle = a.idle[:n-1]
		return s
	}
	return new(transferSearch)
}

// releaseSearch returns s to the idle list, dropping its configuration.
func (a *Assigner) releaseSearch(s *transferSearch) {
	s.oc = nil
	a.idleMu.Lock()
	a.idle = append(a.idle, s)
	a.idleMu.Unlock()
}

// transferStarts returns the start points of the bitwidth-transfer
// search that fit the configuration, in order: adabits, het, het at the
// lowest bitwidth, uniform. Multi-start matters because adabits'
// memory-proportional partition and het's speed-balanced partition sit
// in different basins.
func (a *Assigner) transferStarts(oc *orderingCosts) []*assignment {
	var starts []*assignment
	if ada, err := adabits(oc, a.ind); err == nil {
		starts = append(starts, ada)
	}
	if h, err := het(oc, a.ind); err == nil {
		starts = append(starts, h)
	}
	// Speed-balanced at the lowest bitwidth: a latency-aggressive basin
	// the precision-conservative starts cannot always reach.
	lowest := a.opts.Bits[0]
	for _, b := range a.opts.Bits {
		if b < lowest {
			lowest = b
		}
	}
	if h, err := hetAtBit(oc, a.ind, lowest); err == nil {
		starts = append(starts, h)
	}
	if u, err := uniform(oc, a.ind); err == nil {
		starts = append(starts, u)
	}
	return starts
}

// sortCandidates orders candidates by ascending objective (insertion
// sort; candidate lists are small).
func sortCandidates(cs []candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].ev.Objective < cs[j-1].ev.Objective; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
