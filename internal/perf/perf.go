// Package perf holds the measurement logic behind the repo's tracked
// benchmarks: replan latency under cluster churn, planner parallel
// speedup, serving throughput, and the online tier's SLO quantities
// under a seeded closed-loop scenario, capacity planning, telemetry
// overhead and rolling maintenance. The same functions back both the
// `go test -bench` entry points and cmd/benchjson, which walks the
// Snapshots table to write the committed BENCH_*.json files and to gate
// fresh runs against them, so the two can never measure different
// things.
//
// All entry points use fixed seeds and fixed scenario shapes; the
// tracked quantities are machine-normalized ratios (warm/cold,
// sequential/parallel) or virtual-clock simulation results, so
// snapshots taken on different machines remain comparable.
package perf

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	splitquant "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// replanModel and the churn shapes below fix the ReplanLatency
// scenario; changing any of them invalidates committed snapshots (see
// the BENCH_replan.json entry in Snapshots).
const (
	replanModel   = "bloom-560m"
	replanPreset  = 5
	replanBatch   = 16
	replanPrompt  = 512
	replanOut     = 32
	MaxChurnRound = 8
)

// ReplanResult is one seeded-churn measurement: the total wall-clock of
// cold PlanContext calls versus warm Replan calls over the same
// sequence of degraded clusters.
type ReplanResult struct {
	Rounds int `json:"rounds"`
	// ColdSeconds and WarmSeconds are the summed solve times.
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	// Speedup is ColdSeconds/WarmSeconds — the tracked, machine-normalized
	// quantity.
	Speedup float64 `json:"speedup"`
	// EvaluatedWarm and PrunedWarm sum the warm searches' configuration
	// accounting over fresh-topology rounds; their total equals those
	// rounds' cold enumeration count.
	EvaluatedWarm int `json:"evaluated_warm"`
	PrunedWarm    int `json:"pruned_warm"`
	// MemoHits counts revisit rounds answered from the plan memo (a
	// degraded topology the churn returned to).
	MemoHits int `json:"memo_hits"`
	// CostCacheHits counts cost evaluations the warm side served from the
	// Fork family's shared cache.
	CostCacheHits int64 `json:"cost_cache_hits"`
}

// churnState is one round of the seeded churn trace: a cluster
// incarnation plus whether the trace has visited it before (a restore
// after preemption, which Replan answers from the plan memo).
type churnState struct {
	spec    splitquant.ClusterSpec
	revisit bool
}

// churnStates returns the seeded churn sequence: four distinct degraded
// incarnations of the base preset (every one a genuine warm search),
// followed by four restores to topologies the trace has already seen —
// the preempt/return cycle a harvested fleet actually produces.
func churnStates(base splitquant.ClusterSpec) []churnState {
	drop := func(cs splitquant.ClusterSpec, name string, node int, count int) splitquant.ClusterSpec {
		out := cs
		out.Name = cs.Name + "-" + name
		out.Nodes = append([]splitquant.Node(nil), cs.Nodes...)
		out.Nodes[node].Count -= count
		if out.Nodes[node].Count == 0 {
			out.Nodes = append(out.Nodes[:node], out.Nodes[node+1:]...)
		}
		return out
	}
	// Preset 5 is n0: 3×T4, n1: 1×V100.
	s1 := drop(base, "t4x1", 0, 1) // 2×T4 + V100
	s2 := drop(base, "t4x2", 0, 2) // 1×T4 + V100
	s3 := drop(base, "v100", 1, 1) // 3×T4
	s4 := drop(s1, "v100", 1, 1)   // 2×T4
	return []churnState{
		{spec: s1}, {spec: s2}, {spec: s3}, {spec: s4},
		{spec: s3, revisit: true}, {spec: s2, revisit: true},
		{spec: s1, revisit: true}, {spec: s4, revisit: true},
	}
}

// planKey captures everything plan equivalence cares about.
type planKey struct {
	Stages  []splitquant.StageInfo
	Eta, Xi int
	Quality float64
}

func keyOf(d *splitquant.Deployment) planKey {
	eta, xi := d.MicroBatches()
	return planKey{Stages: d.Stages(), Eta: eta, Xi: xi, Quality: d.QualityPenalty()}
}

// ReplanLatency plans a workload on the full preset cluster, then walks
// a fixed churn sequence of degraded topologies — four fresh
// degradations followed by four restores to already-seen shapes. Each
// round solves the cluster twice: cold (a fresh System, as a restarted
// planner would) and warm (Replan on a Fork of the original System,
// seeded with the previous round's deployment). Fresh rounds must
// warm-start a genuine search; restore rounds must be answered from the
// plan memo. Every round's warm plan must match its cold plan
// bit-for-bit; the returned result carries the timing and pruning
// accounting.
func ReplanLatency(ctx context.Context, rounds int) (*ReplanResult, error) {
	if rounds <= 0 || rounds > MaxChurnRound {
		rounds = MaxChurnRound
	}
	w := splitquant.FixedWorkload(replanBatch, replanPrompt, replanOut)
	base := splitquant.Preset(replanPreset)
	opts := []splitquant.Option{} // defaults: θ=10, full orderings
	sys, err := splitquant.New(replanModel, base, opts...)
	if err != nil {
		return nil, err
	}
	prev, err := sys.PlanContext(ctx, w, replanBatch)
	if err != nil {
		return nil, err
	}
	states := churnStates(base)
	res := &ReplanResult{Rounds: rounds}
	warmSys := sys
	for r := 0; r < rounds; r++ {
		coldSys, err := splitquant.New(replanModel, states[r].spec, opts...)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		cold, err := coldSys.PlanContext(ctx, w, replanBatch)
		if err != nil {
			return nil, err
		}
		res.ColdSeconds += time.Since(t0).Seconds()

		warmSys, err = warmSys.Fork(states[r].spec)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		warm, err := warmSys.Replan(ctx, prev, w, replanBatch)
		if err != nil {
			return nil, err
		}
		res.WarmSeconds += time.Since(t0).Seconds()

		st := warm.Stats()
		if states[r].revisit {
			if !st.Reused {
				return nil, fmt.Errorf("perf: restore round %d was not answered from the plan memo", r)
			}
			res.MemoHits++
		} else {
			if st.Reused {
				return nil, fmt.Errorf("perf: fresh round %d was answered from the plan memo; its topology must be new", r)
			}
			if !st.WarmStarted {
				return nil, fmt.Errorf("perf: fresh round %d did not warm-start", r)
			}
			if st.Configs+st.PrunedConfigs != cold.Stats().Configs {
				return nil, fmt.Errorf("perf: round %d evaluated %d + pruned %d != cold %d",
					r, st.Configs, st.PrunedConfigs, cold.Stats().Configs)
			}
			res.EvaluatedWarm += st.Configs
			res.PrunedWarm += st.PrunedConfigs
			res.CostCacheHits += st.CostCacheHits
		}
		if !reflect.DeepEqual(keyOf(warm), keyOf(cold)) {
			return nil, fmt.Errorf("perf: round %d warm plan differs from cold:\nwarm %+v\ncold %+v", r, keyOf(warm), keyOf(cold))
		}
		prev = warm
	}
	if res.WarmSeconds > 0 {
		res.Speedup = res.ColdSeconds / res.WarmSeconds
	}
	return res, nil
}

// ParallelResult is one planner parallel-speedup measurement.
type ParallelResult struct {
	Workers    int     `json:"workers"`
	SeqSeconds float64 `json:"seq_seconds"`
	ParSeconds float64 `json:"par_seconds"`
	// Speedup is SeqSeconds/ParSeconds.
	Speedup float64 `json:"speedup"`
}

// PlanParallelSpeedup times one identical plan sequentially and on all
// CPUs, each on a fresh System so neither side starts with warm caches.
func PlanParallelSpeedup(ctx context.Context) (*ParallelResult, error) {
	w := splitquant.FixedWorkload(32, 512, 32)
	planOnce := func(workers int) (float64, error) {
		sys, err := splitquant.New("opt-30b", splitquant.Preset(5),
			splitquant.WithMethod(splitquant.MethodHeuristic), splitquant.WithTheta(1),
			splitquant.WithParallelism(workers))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := sys.PlanContext(ctx, w, 32); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	}
	res := &ParallelResult{Workers: runtime.GOMAXPROCS(0)}
	var err error
	if res.SeqSeconds, err = planOnce(1); err != nil {
		return nil, err
	}
	if res.ParSeconds, err = planOnce(0); err != nil {
		return nil, err
	}
	if res.ParSeconds > 0 {
		res.Speedup = res.SeqSeconds / res.ParSeconds
	}
	return res, nil
}

// ServeResult is one control-plane throughput measurement.
type ServeResult struct {
	Jobs int `json:"jobs"`
	// ColdJobsPerSec submits jobs with distinct shapes (every job plans
	// fresh); WarmJobsPerSec submits identical jobs against a primed plan
	// cache.
	ColdJobsPerSec float64 `json:"cold_jobs_per_sec"`
	WarmJobsPerSec float64 `json:"warm_jobs_per_sec"`
}

// ServeThroughput measures end-to-end jobs/sec through the serve
// control plane (submit → plan → simulate → complete) with a cold and a
// warm plan cache.
func ServeThroughput(ctx context.Context, jobs int) (*ServeResult, error) {
	if jobs <= 0 {
		jobs = 20
	}
	res := &ServeResult{Jobs: jobs}
	var err error
	if res.ColdJobsPerSec, err = serveJobs(ctx, jobs, false, nil); err != nil {
		return nil, err
	}
	if res.WarmJobsPerSec, err = serveJobs(ctx, jobs, true, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// serveJobs submits jobs one at a time to a fresh single-pool server on
// preset 9, optionally traced, and returns the jobs/sec of that loop.
// Cold jobs each get a distinct prompt length, so every one plans
// fresh. Warm jobs are identical and follow one untimed job that primes
// the plan cache, so every timed job must be a cache hit.
func serveJobs(ctx context.Context, jobs int, warm bool, tr *obs.Tracer) (float64, error) {
	srv, err := serve.New(serve.Config{
		Resources: []scheduler.Resource{
			{Name: "pool9", Cluster: cluster.MustPreset(9), Availability: 1},
		},
		CacheCapacity: jobs + 2,
		QueueCapacity: jobs + 2,
		Planner:       core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
		Tracer:        tr,
	})
	if err != nil {
		return 0, err
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(shCtx)
	}()
	spec := serve.JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8}
	// run submits one job and polls it to completion.
	run := func(s serve.JobSpec) (serve.JobView, error) {
		v, err := srv.Submit(s)
		if err != nil {
			return v, err
		}
		for {
			if v, err = srv.Job(v.ID); err != nil {
				return v, err
			}
			if v.State == serve.StateCompleted {
				return v, nil
			}
			if v.State == serve.StateFailed || v.State == serve.StateCanceled {
				return v, fmt.Errorf("perf: job %s: %s (%s)", v.ID, v.State, v.Error)
			}
			if err := ctx.Err(); err != nil {
				return v, err
			}
			time.Sleep(time.Millisecond)
		}
	}
	if warm {
		if _, err := run(spec); err != nil { // prime the cache
			return 0, err
		}
	}
	t0 := time.Now()
	for i := 0; i < jobs; i++ {
		s := spec
		if !warm {
			s.Prompt = 256 + i%512 // distinct cache key per job
		}
		v, err := run(s)
		if err != nil {
			return 0, err
		}
		if warm && !v.CacheHit {
			return 0, fmt.Errorf("perf: warm job %s missed the plan cache", v.ID)
		}
	}
	return float64(jobs) / time.Since(t0).Seconds(), nil
}
