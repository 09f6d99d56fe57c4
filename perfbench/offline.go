package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/quant"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The offline workloads run one in-process serve.Server with a single
// pool and a single worker, so every job meets the same planner work in
// every run (with several pools and workers, the job-to-pool pairing
// depends on timing). The pool is the paper's heterogeneous preset 2
// (2×V100 + 1×A100).
const offlinePreset = 2

// offlineShapes are the jobs of both offline workloads, each taken from
// a job the repository documents:
//   - opt-13b, batch 32, 640 requests, serve's default fixed 512/32
//     profile: the serving daemon's example job in the top-level README;
//   - qwen2.5-14b, summarization, batch 16, and qwen2.5-14b, longcontext,
//     batch 4: the paper's Fig. 9 cases on this preset
//     (internal/experiments, CNN-DailyMail and LooGLE);
//   - opt-13b, chat, batch 16, method "ilp": serve's chat profile at the
//     chat concurrency of examples/longcontext, on the model of the
//     online workload; it is the block's one ILP job.
//
// The profiles are sampled with a fixed JobSpec.Seed, so a shape is the
// same batch in every run. An ILP job on opt-30b (batch 32, on this
// preset) costs about 4.7 s of CPU per cold plan on two CPUs, against
// 1.6–3.0 s for these, and would leave too few blocks in a run.
var offlineShapes = []serve.JobSpec{
	{Model: "opt-13b", Batch: 32, Requests: 640},
	{Model: "qwen2.5-14b", Workload: "summarization", Seed: 1, Batch: 16, Requests: 640},
	{Model: "qwen2.5-14b", Workload: "longcontext", Seed: 1, Batch: 4, Requests: 640},
	{Model: "opt-13b", Workload: "chat", Seed: 1, Batch: 16, Requests: 640, Method: string(core.MethodILP)},
}

// planBits and planBitKV are the planner settings serve.New applies by
// default; the traced run plans with the same ones.
var planBits = []int{3, 4, 8, 16}

const planBitKV = 16

// warmRepeats is how often each warm shape is resubmitted per block.
const warmRepeats = 24

// warmupJob is the set-up job that warms the runtime before the measured
// phase; it is the same for every seed, so set-up does not vary with it.
var warmupJob = serve.JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8, Prompt: 100, Output: 8}

// offlineWorkload is offline-cold (every plan lookup misses) or
// offline-warm (every plan lookup hits).
type offlineWorkload struct {
	cold bool
	// jobs is the block: distinct shapes for cold, resubmissions of the
	// primed shapes for warm; kinds holds each job's index in shapes.
	jobs   []serve.JobSpec
	kinds  []int
	shapes []serve.JobSpec
	srv    *offlineServer
	obs    bool
	// blockIDs holds each block's job IDs, checked counts the cold blocks
	// already checked, and hits0/misses0 are the warm server's cache
	// counters before the measured jobs.
	blockIDs       [][]string
	checked        int
	hits0, misses0 uint64
	// planJSON holds each warm shape's plan as the cache stores it; the
	// traced run decodes it the way a cache hit does.
	planJSON map[serve.JobSpec][]byte
	planTPS  float64
}

func (w *offlineWorkload) name() string {
	if w.cold {
		return "offline-cold"
	}
	return "offline-warm"
}

// prepare lays out a block: the four shapes once (cold) or warmRepeats
// times each (warm). The shapes are fixed because the work depends on
// them: with seeded shapes, the ILP polish's branch and bound, which
// reacts to every cost coefficient, made CPU per cold job differ by a
// third between seeds. The seed draws the submission order.
func (w *offlineWorkload) prepare(seed uint64) (uint64, error) {
	w.shapes = append(w.shapes[:0], offlineShapes...)
	var jobs []serve.JobSpec
	if w.cold {
		jobs = append(jobs, w.shapes...)
	} else {
		for r := 0; r < warmRepeats; r++ {
			jobs = append(jobs, w.shapes...)
		}
	}
	w.jobs, w.kinds = w.jobs[:0], w.kinds[:0]
	for _, j := range stats.NewRNG(seed).Perm(len(jobs)) {
		w.jobs = append(w.jobs, jobs[j])
		w.kinds = append(w.kinds, j%len(w.shapes))
	}
	return fingerprint(w.jobs), nil
}

// fingerprint hashes generated inputs, so a test can tell two seeds'
// inputs apart.
func fingerprint(v any) uint64 {
	h := fnv.New64a()
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // inputs are plain structs
	}
	h.Write(raw)
	return h.Sum64()
}

// offlineServer is a serve.Server whose jobs signal completion through
// BatchHook, so the client waits on a channel instead of polling.
type offlineServer struct {
	srv  *serve.Server
	done chan string
	// watchdog wakes the client to look for a job that failed or was
	// canceled, which ends without a final batch.
	watchdog *time.Ticker
}

func startOffline(obsOn bool) (*offlineServer, error) {
	o := &offlineServer{done: make(chan string, 1), watchdog: time.NewTicker(250 * time.Millisecond)}
	cfg := serve.Config{
		Resources:     []scheduler.Resource{{Name: "het", Cluster: cluster.MustPreset(offlinePreset), Availability: 1}},
		Workers:       1,
		CacheCapacity: 256,
		QueueCapacity: 16,
		Planner:       core.Options{Method: core.MethodHeuristic, Theta: 1},
		BatchHook: func(id string, done, total int) {
			if done == total {
				o.done <- id
			}
		},
	}
	if obsOn {
		cfg.Tracer = obs.NewTracer()
	}
	srv, err := serve.New(cfg)
	if err != nil {
		o.watchdog.Stop()
		return nil, err
	}
	o.srv = srv
	return o, nil
}

// run submits one job and waits until its last batch ran.
func (o *offlineServer) run(spec serve.JobSpec) (string, error) {
	v, err := o.srv.Submit(spec)
	if err != nil {
		return "", err
	}
	for {
		select {
		case id := <-o.done:
			if id == v.ID {
				return v.ID, nil
			}
		case <-o.watchdog.C:
			cur, err := o.srv.Job(v.ID)
			if err != nil {
				return v.ID, err
			}
			if cur.State == serve.StateFailed || cur.State == serve.StateCanceled {
				return v.ID, fmt.Errorf("job %s %s: %s", v.ID, cur.State, cur.Error)
			}
		}
	}
}

func (o *offlineServer) close() {
	o.watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// A drain that times out leaves jobs unfinished, which the job checks
	// then report as failed ops.
	_ = o.srv.Shutdown(ctx)
}

func (w *offlineWorkload) setup(cfg runConfig) error {
	w.obs = cfg.obs
	w.blockIDs, w.checked = nil, 0
	srv, err := startOffline(cfg.obs)
	if err != nil {
		return err
	}
	w.srv = srv
	if _, err := srv.run(warmupJob); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	if w.cold {
		return nil
	}
	for _, s := range w.shapes {
		if _, err := srv.run(s); err != nil {
			return fmt.Errorf("priming %s: %w", s.Model, err)
		}
	}
	// One warm-up hit, excluded from the metrics like the cold warm-up.
	if _, err := srv.run(w.shapes[0]); err != nil {
		return fmt.Errorf("warm-up hit: %w", err)
	}
	met := srv.srv.Metrics()
	w.hits0, w.misses0 = met.CacheHits, met.CacheMisses
	return nil
}

func (w *offlineWorkload) teardown() {
	if w.srv != nil {
		w.srv.close()
		w.srv = nil
	}
}

func (w *offlineWorkload) block(idx int, m *meter, tr *tracer, o *outcome) error {
	var costs *core.CostCache
	if w.cold {
		// A fresh server per block: an empty plan cache and cost cache,
		// so every block does the same planner work.
		w.closeCold(o)
		srv, err := startOffline(w.obs)
		if err != nil {
			return err
		}
		w.srv = srv
		costs = core.NewCostCache()
	}
	srv := w.srv
	ids := make([]string, 0, len(w.jobs))
	for i, spec := range w.jobs {
		o.attempted++
		op := tr.op()
		root := tr.begin(op, nil, "serve.job")
		m.begin()
		id, err := srv.run(spec)
		m.end(w.kinds[i], 1)
		root.end()
		if err != nil {
			o.fail(1, "%s job %s: %v", spec.Model, id, err)
			continue
		}
		ids = append(ids, id)
		if tr != nil {
			if err := w.traceJob(tr, op, root, spec, id, costs); err != nil {
				o.fail(1, "traced %s job %s: %v", spec.Model, id, err)
			}
		}
	}
	w.blockIDs = append(w.blockIDs, ids)
	return nil
}

// closeCold shuts down the current cold server and checks the block it
// ran, if any. The server stays up until the next block or the end of the
// run, so the live heap read after the first block includes its caches.
func (w *offlineWorkload) closeCold(o *outcome) {
	srv := w.srv
	if srv == nil {
		return
	}
	// Shutdown waits for the executor, so every job state is final.
	srv.close()
	w.srv = nil
	if w.checked == len(w.blockIDs) {
		return // the set-up server ran no block
	}
	idx, ids := w.checked, w.blockIDs[w.checked]
	w.checked++
	met := srv.srv.Metrics()
	o.count("cache_hits", float64(met.CacheHits))
	o.count("cache_misses", float64(met.CacheMisses))
	if met.CacheHits != 0 || met.CacheMisses != uint64(len(ids)) {
		o.fail(len(ids), "cold block %d: %d cache hits, %d misses for %d jobs (want no hits)",
			idx, met.CacheHits, met.CacheMisses, len(ids))
	}
	w.checkBlock(o, srv.srv, idx, ids)
}

// checkBlock checks that every job of a block completed with the
// workload's cache outcome, and that the block's mean plan throughput
// repeats block 0's exactly.
func (w *offlineWorkload) checkBlock(o *outcome, srv *serve.Server, idx int, ids []string) {
	tps, n := 0.0, 0
	for _, id := range ids {
		v, err := srv.Job(id)
		switch {
		case err != nil:
			o.fail(1, "job %s: %v", id, err)
		case v.State != serve.StateCompleted:
			o.fail(1, "job %s ended %s: %s", id, v.State, v.Error)
		case v.CacheHit == w.cold:
			o.fail(1, "job %s: cache hit %v on %s", id, v.CacheHit, w.name())
		default:
			tps += v.Throughput
			n++
		}
	}
	if n != len(w.jobs) {
		return
	}
	tps /= float64(n)
	if idx == 0 {
		w.planTPS = tps
	} else if tps != w.planTPS {
		o.fail(n, "block %d mean plan throughput %.9g differs from block 0's %.9g", idx, tps, w.planTPS)
	}
}

func (w *offlineWorkload) finish(o *outcome) {
	if w.cold {
		w.closeCold(o)
	} else if w.srv != nil {
		// Shutdown waits for the executor, so every job state is final.
		srv := w.srv
		srv.close()
		w.srv = nil
		met := srv.srv.Metrics()
		hits, misses := met.CacheHits-w.hits0, met.CacheMisses-w.misses0
		o.count("cache_hits", float64(hits))
		o.count("cache_misses", float64(misses))
		var n int
		for idx, ids := range w.blockIDs {
			n += len(ids)
			w.checkBlock(o, srv.srv, idx, ids)
		}
		if misses != 0 || hits != uint64(n) {
			o.fail(n, "warm run: %d cache hits, %d misses for %d jobs (want all hits)", hits, misses, n)
		}
	}
	o.addBehaviour("plan_tok_per_s", w.planTPS, "tok/s")
}

// jobBatch is the batch serve synthesizes for a job: the fixed profile
// (512/32 unless set) or a named profile sampled from the job's seed,
// which every offline shape with a named profile sets. The traced run's
// check that its plan equals serve's keeps the two in step.
func jobBatch(spec serve.JobSpec, mspec *model.Spec) (workload.Batch, error) {
	var prof *workload.Profile
	switch spec.Workload {
	case "", "fixed":
		prompt, out := spec.Prompt, spec.Output
		if prompt == 0 {
			prompt = 512
		}
		if out == 0 {
			out = 32
		}
		prof = workload.Fixed(spec.Batch, prompt, out)
	case "summarization":
		prof = workload.CNNDailyMail(stats.NewRNG(spec.Seed), 2000)
	case "longcontext":
		prof = workload.LooGLE(stats.NewRNG(spec.Seed), 2000)
	case "chat":
		prof = workload.ShareGPT(stats.NewRNG(spec.Seed), 2000)
	default:
		return workload.Batch{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	return workload.Synthesize(prof, spec.Batch, 2048, mspec.MaxPos)
}

// jobPlanner builds the planner serve runs for a job: serve's defaults
// (heuristic, θ = 1, bits {3, 4, 8, 16}, 16-bit KV), the job's method,
// and the given cost cache.
func jobPlanner(spec serve.JobSpec, mspec *model.Spec, costs *core.CostCache) (*core.Assigner, error) {
	opts := core.Options{Method: core.MethodHeuristic, Theta: 1, Bits: planBits, BitKV: planBitKV, Costs: costs}
	if spec.Method != "" {
		opts.Method = core.Method(spec.Method)
	}
	ind := core.ProfileIndicator(mspec, opts.Bits, quant.Deterministic)
	return core.New(mspec, cluster.MustPreset(offlinePreset), ind, opts)
}

// decodeCached is what a plan-cache hit does: decode the stored JSON,
// bind it to the pool and validate it.
func decodeCached(raw []byte, clu *cluster.Cluster, layers int) (*plan.Plan, error) {
	var p plan.Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	if err := p.Bind(clu); err != nil {
		return nil, err
	}
	if err := p.Validate(layers); err != nil {
		return nil, err
	}
	return &p, nil
}

// traceJob re-issues, with the job's own inputs, the calls serve made
// inside the job, each as a child span of the job's span: the planner
// (cold) or the decode of the cached plan (warm), then the simulation.
// Both must reproduce what serve reported for the job.
func (w *offlineWorkload) traceJob(tr *tracer, op int, root *span, spec serve.JobSpec, id string, costs *core.CostCache) error {
	v, err := w.srv.srv.Job(id)
	if err != nil {
		return err
	}
	if v.StartedAt != nil {
		root.set("queue_wait_s", v.StartedAt.Sub(v.SubmittedAt).Seconds())
	}
	mspec, err := model.Lookup(spec.Model)
	if err != nil {
		return err
	}
	batch, err := jobBatch(spec, mspec)
	if err != nil {
		return err
	}
	clu := cluster.MustPreset(offlinePreset)
	var p *plan.Plan
	if w.cold {
		a, err := jobPlanner(spec, mspec, costs)
		if err != nil {
			return err
		}
		sp := tr.begin(op, root, "core.plan")
		p, rep, err := a.Plan(context.Background(), batch)
		sp.end()
		if err != nil {
			return err
		}
		var search, polish float64
		for _, st := range rep.ConfigStats {
			if st.ILPSolves > 0 {
				polish += st.Seconds
			} else {
				search += st.Seconds
			}
		}
		sp.set("configs", float64(rep.Configs))
		sp.set("search_busy_s", search)
		sp.set("polish_busy_s", polish)
		sp.set("ilp_solves", float64(rep.ILPSolves))
		sp.set("ilp_nodes", float64(rep.Nodes))
		sp.set("cost_hits", float64(rep.CostCacheHits))
		sp.set("cost_misses", float64(rep.CostCacheMisses))
		if spec.Method == string(core.MethodILP) {
			sp.set("ilp", 1)
			sp.set("proved", boolValue(rep.Proved))
		}
		if err := w.sameJob(tr, op, root, p, v, mspec, clu, batch); err != nil {
			return err
		}
		return nil
	}
	raw, ok := w.planJSON[spec]
	if !ok {
		a, err := jobPlanner(spec, mspec, core.NewCostCache())
		if err != nil {
			return err
		}
		if p, _, err = a.Plan(context.Background(), batch); err != nil {
			return err
		}
		if raw, err = json.Marshal(p); err != nil {
			return err
		}
		if w.planJSON == nil {
			w.planJSON = map[serve.JobSpec][]byte{}
		}
		w.planJSON[spec] = raw
	}
	sp := tr.begin(op, root, "plan.decode")
	p, err = decodeCached(raw, clu, mspec.Layers)
	sp.end()
	if err != nil {
		return err
	}
	return w.sameJob(tr, op, root, p, v, mspec, clu, batch)
}

// sameJob simulates the plan as a child span and checks that plan and
// simulated throughput match what serve reported for the job.
func (w *offlineWorkload) sameJob(tr *tracer, op int, root *span, p *plan.Plan, v serve.JobView,
	mspec *model.Spec, clu *cluster.Cluster, batch workload.Batch) error {
	if p.String() != v.Plan {
		return fmt.Errorf("direct plan %s differs from serve's %s", p, v.Plan)
	}
	sp := tr.begin(op, root, "pipeline.simulate")
	sim, err := pipeline.Simulate(p, mspec, clu, batch)
	sp.end()
	if err != nil {
		return err
	}
	if sim.Throughput != v.Throughput {
		return fmt.Errorf("direct simulation gives %.9g tok/s, serve reported %.9g", sim.Throughput, v.Throughput)
	}
	return nil
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
