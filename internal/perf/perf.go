// Package perf holds the scenarios behind the committed BENCH_*.json
// snapshots and the gates that read them: replan latency under cluster
// churn (plans on a Fork family that shares its plan and cost caches
// versus plans on fresh Systems), the online tier's SLO quantities
// under a seeded closed-loop scenario, capacity planning and telemetry
// overhead. cmd/benchjson walks the Snapshots table to write the files
// and to gate fresh runs against them; a scenario no gate reads is not
// measured here.
//
// All entry points use fixed seeds and fixed scenario shapes; the
// gated quantities are machine-normalized ratios (shared-cache/fresh,
// untraced/traced) or virtual-clock simulation results, so snapshots
// taken on different machines remain comparable.
package perf

import (
	"context"
	"fmt"
	"reflect"
	"time"

	splitquant "repro"
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
// cold PlanContext calls, each on a fresh System, versus warm ones on a
// Fork family whose plan cache and cost cache carry over from round to
// round, over the same sequence of degraded clusters.
type ReplanResult struct {
	Rounds int `json:"rounds"`
	// ColdSeconds and WarmSeconds are the summed solve times.
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	// Speedup is ColdSeconds/WarmSeconds — the tracked, machine-normalized
	// quantity.
	Speedup float64 `json:"speedup"`
	// EvaluatedWarm and PrunedWarm sum the warm searches' configuration
	// accounting over fresh-topology rounds; each round's counts equal
	// its cold search's.
	EvaluatedWarm int `json:"evaluated_warm"`
	PrunedWarm    int `json:"pruned_warm"`
	// MemoHits counts revisit rounds answered from the plan cache (a
	// degraded topology the churn returned to).
	MemoHits int `json:"memo_hits"`
	// CostCacheHits counts cost evaluations the warm side served from the
	// Fork family's shared cache.
	CostCacheHits int64 `json:"cost_cache_hits"`
}

// churnState is one round of the seeded churn trace: a cluster
// incarnation plus whether the trace has visited it before (a restore
// after preemption, which the plan cache answers).
type churnState struct {
	spec    splitquant.ClusterSpec
	revisit bool
}

// churnStates returns the seeded churn sequence: four distinct degraded
// incarnations of the base preset (every one a genuine search),
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
// planner would) and warm (PlanContext on a Fork of the previous
// round's System, sharing its plan cache and cost cache). Fresh rounds
// must run a genuine search that evaluates and prunes exactly the
// configurations the cold search does; restore rounds must be answered
// from the plan cache. Every round's warm plan must match its cold plan
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
	if _, err := sys.PlanContext(ctx, w, replanBatch); err != nil {
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
		warm, err := warmSys.PlanContext(ctx, w, replanBatch)
		if err != nil {
			return nil, err
		}
		res.WarmSeconds += time.Since(t0).Seconds()

		st := warm.Stats()
		if states[r].revisit {
			if !st.Reused {
				return nil, fmt.Errorf("perf: restore round %d was not answered from the plan cache", r)
			}
			res.MemoHits++
		} else {
			if st.Reused {
				return nil, fmt.Errorf("perf: fresh round %d was answered from the plan cache; its topology must be new", r)
			}
			if cs := cold.Stats(); st.Configs != cs.Configs || st.PrunedConfigs != cs.PrunedConfigs {
				return nil, fmt.Errorf("perf: round %d evaluated %d and pruned %d, cold %d and %d",
					r, st.Configs, st.PrunedConfigs, cs.Configs, cs.PrunedConfigs)
			}
			res.EvaluatedWarm += st.Configs
			res.PrunedWarm += st.PrunedConfigs
			res.CostCacheHits += st.CostCacheHits
		}
		if !reflect.DeepEqual(keyOf(warm), keyOf(cold)) {
			return nil, fmt.Errorf("perf: round %d warm plan differs from cold:\nwarm %+v\ncold %+v", r, keyOf(warm), keyOf(cold))
		}
	}
	if res.WarmSeconds > 0 {
		res.Speedup = res.ColdSeconds / res.WarmSeconds
	}
	return res, nil
}
