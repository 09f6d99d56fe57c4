package core

import (
	"cmp"
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
	// (default {B/8, B/4, B/2, B} clamped to ≥ 1, deduplicated).
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
	// Objective selects the phase terms the planning objective keeps
	// (default both; memory accounting stays intact either way).
	// PrefillOnly is the phase-blind ablation D1 of DESIGN.md, modeling
	// prior encoder-oriented partitioners, and plans a disaggregated
	// prefill pool, whose stages never decode. DecodeOnly leaves pure
	// per-token decode latency and plans a disaggregated decode pool: its
	// sessions' prefill already ran elsewhere (KV arrives by handoff).
	Objective Phase
	// Costs, when non-nil, memoizes per-layer latencies, keyed by the
	// gpu.Pass they price, across configurations and across searches (see
	// CostCache). Sharing one cache between re-plans of a churning fleet
	// is safe — cached values are bitwise-identical to direct evaluation —
	// and is what makes a re-plan cheaper than a plan from scratch.
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

// Phase names the phase terms a planning objective keeps.
type Phase string

// Objective phases.
const (
	// BothPhases keeps every term of Eq. 4.
	BothPhases Phase = ""
	// PrefillOnly drops the decode terms.
	PrefillOnly Phase = "prefill"
	// DecodeOnly drops the prefill terms.
	DecodeOnly Phase = "decode"
)

// baseline reports whether m is one of the paper's baselines, Uniform
// and Het. They rank by latency alone (θ = 0), ignore the quality cap,
// and run one micro-batch per stage.
func (m Method) baseline() bool { return m == MethodUniform || m == MethodHet }

// builders holds the methods whose step for one configuration is a
// single constructed assignment. The joint methods, ILP and heuristic,
// run the multi-start bitwidth-transfer search instead (see bestStart).
var builders = map[Method]startBuilder{
	MethodAdabits: (*startBuffers).adabits,
	MethodUniform: (*startBuffers).uniform,
	MethodHet:     (*startBuffers).het,
}

// startBuilder builds one assignment for a configuration into reused
// buffers (see startBuffers).
type startBuilder func(*startBuffers, *orderingCosts, *Indicator) (*assignment, error)

// transferStarts are the start points of the bitwidth-transfer search,
// in the order bestStart runs them: adabits, het, het at the lowest
// bitwidth, uniform. Multi-start matters because adabits'
// memory-proportional partition and het's speed-balanced partition sit
// in different basins; het at the lowest bitwidth is a
// latency-aggressive basin the precision-conservative starts cannot
// always reach.
var transferStarts = []startBuilder{
	(*startBuffers).adabits,
	(*startBuffers).het,
	(*startBuffers).hetLowest,
	(*startBuffers).uniform,
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
	// PrunedConfigs counts configurations the search skipped because
	// their bound proved they could not enter the shortlist. They appear
	// in ConfigStats with Pruned set. A polish solve cut off by the
	// heuristic's objective sets Pruned too, but counts in ILPSolves.
	PrunedConfigs int
	// LowerBound is a lower bound on the Eq. 4 objective (at the plan's
	// θ, quality cap relaxed) of every assignment under every enumerated
	// configuration: the least of the search's per-configuration bounds,
	// pruned configurations included. (Objective − LowerBound)/Objective
	// is the plan's certified gap. It is −Inf when the search was
	// cancelled before every bound was built.
	LowerBound float64
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
	if o := opts.Objective; o != BothPhases && o != PrefillOnly && o != DecodeOnly {
		return nil, fmt.Errorf("core: unknown objective phase %q", o)
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
	switch a.opts.Objective {
	case PrefillOnly:
		for j := range oc.dec {
			for bi := range oc.dec[j] {
				oc.dec[j][bi] = 0
			}
			oc.commDec[j] = 0
		}
		oc.aDec = 0
	case DecodeOnly:
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
// (Options.Parallelism), skipping those whose lower bound cannot
// reach the shortlist (see search), and merged deterministically, so
// the plan is bit-identical to a sequential, exhaustive run.
//
// Cancelling ctx (or exceeding its deadline) stops all in-flight solves
// promptly. When at least one feasible candidate has already been found
// the best incumbent is returned with Report.Cancelled set — the same
// graceful degradation as the ILP TimeLimit; otherwise Plan returns
// ctx.Err().
func (a *Assigner) Plan(ctx context.Context, batch workload.Batch) (*plan.Plan, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := batch.Validate(); err != nil {
		return nil, nil, err
	}
	rep := &Report{LowerBound: math.Inf(-1)}
	var hits0, misses0 int64
	if c := a.opts.Costs; c != nil {
		hits0, misses0 = c.Hits(), c.Misses()
	}
	sink := newProgressSink(a.opts.Progress, math.Inf(1))
	p, err := a.search(ctx, batch, a.searchConfigs(batch.Size), rep, sink, a.opts.Theta)
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

// thetaOmega returns θ·ω over nb bitwidths laid out as lagrangian.bound
// reads it: layer i's entry for bit index bi at i*nb+bi.
func thetaOmega(ind *Indicator, nb int, theta float64) []float64 {
	tw := make([]float64, 0, ind.Layers()*nb)
	for _, row := range ind.Omega {
		for _, w := range row[:nb] {
			tw = append(tw, theta*w)
		}
	}
	return tw
}

// search is the phase-1 sweep: one bound-ordered search over every
// candidate configuration. It builds each configuration's cost tables
// and lower bound (optimisticBound, and for the joint methods the
// Lagrangian bound at its starting multipliers), then evaluates in
// chunks the configurations whose bound reaches the admission
// threshold, each first refined toward a finite threshold (see
// lagrangian.bound), tightening the threshold
// to the K-th best candidate objective after every chunk (K is the
// shortlist depth: the ILP polish count, else 1). It stops at a
// fixpoint where no unevaluated bound reaches the K-th best objective,
// so no skipped configuration could enter the shortlist and the plan is
// the one an exhaustive sweep would return. The threshold starts at
// +Inf and chunks run in ascending bound order (ties by enumeration
// index).
func (a *Assigner) search(ctx context.Context, batch workload.Batch, configs []planConfig,
	rep *Report, sink *progressSink, theta float64) (*plan.Plan, error) {

	// Only the joint methods, whose step is a multi-start search, pay
	// for the Lagrangian bound, and only when the threshold can prune:
	// the first chunk is evaluated whatever the bounds.
	lagrange := builders[a.opts.Method] == nil && len(configs) > searchChunk
	var tw []float64
	if lagrange {
		tw = thetaOmega(a.ind, len(a.opts.Bits), theta)
	}
	ocs := make([]*orderingCosts, len(configs))
	bounds := make([]float64, len(configs))
	lagrangeBound := func(i int, target float64, steps int) {
		s := a.takeSearch()
		bounds[i] = max(bounds[i], s.lagrangian.bound(ocs[i], tw, target, steps))
		a.releaseSearch(s)
	}
	runPool(ctx, a.parallelism(), len(configs), func(i int) {
		if ctx.Err() != nil {
			return
		}
		ocs[i] = a.buildConfigCosts(configs[i], batch)
		bounds[i] = optimisticBound(ocs[i], a.ind, theta)
		if lagrange {
			lagrangeBound(i, math.Inf(1), 0)
		}
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
	var chunk, next []int
	for ctx.Err() == nil {
		// Fill the chunk in rank order. Under a finite threshold, each
		// candidate's Lagrangian bound is first refined toward it, a
		// batch of as many candidates as the chunk lacks at a time, so
		// the refined set is the one a one-at-a-time scan refines.
		chunk = chunk[:0]
		for r := 0; len(chunk) < searchChunk; {
			next = next[:0]
			for ; r < len(rank) && len(next) < searchChunk-len(chunk); r++ {
				if i := rank[r]; !results[i].done && bounds[i] <= threshold+boundEps {
					next = append(next, i)
				}
			}
			if len(next) == 0 {
				break
			}
			if lagrange && !math.IsInf(threshold, 1) {
				runPool(ctx, a.parallelism(), len(next), func(c int) {
					lagrangeBound(next[c], threshold+boundEps, lagrangeSteps)
				})
			}
			for _, i := range next {
				if bounds[i] <= threshold+boundEps {
					chunk = append(chunk, i)
				}
			}
		}
		if len(chunk) == 0 {
			break // fixpoint
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
		threshold = kth() // only falls: evaluated candidates only accumulate
	}

	// Only an evaluated configuration's bound can lie below the best
	// objective found. Those are refined in ascending bound order, each
	// toward the least refined bound so far (the floor); once the next
	// bound reaches the floor, no later one can lower the least bound.
	if lagrange && ctx.Err() == nil {
		floor := math.Inf(1)
		for i := range results {
			if results[i].cand != nil {
				floor = min(floor, results[i].cand.ev.Objective)
			}
		}
		chunk = chunk[:0]
		for i := range results {
			if results[i].done && bounds[i] < floor {
				chunk = append(chunk, i)
			}
		}
		slices.SortStableFunc(chunk, func(x, y int) int { return cmp.Compare(bounds[x], bounds[y]) })
		for _, i := range chunk {
			if bounds[i] >= floor {
				break
			}
			lagrangeBound(i, floor, lagrangeSteps)
			floor = min(floor, bounds[i])
		}
	}
	rep.LowerBound = slices.Min(bounds)

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
// candidates, fanned across the pool. Every solve is cut off at the
// heuristic's best objective, the plan each must beat. The merge
// replays the sequential accept-if-better scan in shortlist order, so
// the winning candidate (and Report.Proved) match a sequential run
// exactly.
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
			Incumbent:  best.ev.Objective,
		}
		as, sol, err := solveILP(ctx, cands[c].oc, a.ind, theta, cfg)
		stat := ConfigStat{Key: cands[c].key, ILPSolves: 1, Objective: math.Inf(1)}
		if sol != nil {
			stat.Nodes = sol.Nodes
			stat.Pruned = sol.Status == ilp.CutOff
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
// bitwidth-transfer local search from every start point that fits
// (transferStarts) and keep the best. It returns the assignment with its
// evaluation, or nil when nothing fits. One idle transferSearch serves
// every start: the starts are built into its buffers, and the best
// result so far is kept there too, so only the returned assignment is
// allocated.
func (a *Assigner) bestStart(oc *orderingCosts, theta float64) (*assignment, evaluation) {
	search := a.takeSearch()
	defer a.releaseSearch(search)
	if build := builders[a.opts.Method]; build != nil {
		as, err := build(&search.starts, oc, a.ind)
		if err != nil {
			return nil, evaluation{}
		}
		return as.clone(), evaluate(as, oc, a.ind, theta)
	}
	found := false
	bestEv := evaluation{Objective: math.Inf(1)}
	search.configure(oc, a.ind, theta)
	for _, build := range transferStarts {
		start, err := build(&search.starts, oc, a.ind)
		if err != nil {
			continue
		}
		if ev := search.transfer(start, 0, a.opts.QualityCap); a.admissible(ev) && ev.Objective < bestEv.Objective {
			found, bestEv = true, ev
			search.best.stageOf = append(search.best.stageOf[:0], search.cur.stageOf...)
			search.best.bitIdx = append(search.best.bitIdx[:0], search.cur.bitIdx...)
		}
	}
	if !found {
		return nil, bestEv
	}
	return search.best.clone(), bestEv
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

// sortCandidates orders candidates by ascending objective (insertion
// sort; candidate lists are small).
func sortCandidates(cs []candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].ev.Objective < cs[j-1].ev.Objective; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
