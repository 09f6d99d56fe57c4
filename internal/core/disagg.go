// Disaggregated placement: the prefill and decode phases of a serving
// workload run on *different* device pools, each planned with the
// objective that matches its phase. Prefill is compute-bound, so its
// pool is carved from the cluster's highest-FLOPS classes and planned
// at high precision under the PrefillOnly objective; decode is
// memory-bound, so the remaining (cheaper, bandwidth-limited) classes
// take it with low-bit weights and a quantized KV cache under the
// DecodeOnly objective.
// A generation started on the prefill pool migrates to the decode pool
// by token-log handoff (internal/transport), so the prefill plan only
// ever holds one generated token of KV per request.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/workload"
)

// decodeBitKV is the decode pool's KV-cache bitwidth.
const decodeBitKV = 8

// DisaggregatedPlan is a pair of phase plans over disjoint sub-clusters.
type DisaggregatedPlan struct {
	Prefill        *plan.Plan
	Decode         *plan.Plan
	PrefillCluster *cluster.Cluster
	DecodeCluster  *cluster.Cluster
	PrefillReport  *Report
	DecodeReport   *Report
	// PrefillBatch is the batch shape the prefill pool was planned on:
	// the caller's batch with a one-token generation budget. The decode
	// pool was planned on the caller's batch itself.
	PrefillBatch workload.Batch
}

// PoolSplit is one candidate partition of a cluster into a prefill and
// a decode pool.
type PoolSplit struct {
	Prefill *cluster.Cluster
	Decode  *cluster.Cluster
}

// PhaseSplits enumerates candidate prefill/decode partitions of the
// cluster, strongest-prefill-pool first. With ≥ 2 device classes the
// class boundary is the split: for each k, the top-k classes by FP16
// throughput form the prefill pool and the rest decode — the
// disaggregation the paper's phase analysis motivates (compute-rich
// devices prefill, memory-rich devices decode). A single-class cluster
// falls back to count splits (⅓, ½, ⅔ of the devices prefilling).
func PhaseSplits(clu *cluster.Cluster) []PoolSplit {
	classFLOPS := map[gpu.DeviceClass]float64{}
	for _, n := range clu.Nodes {
		if _, ok := classFLOPS[n.Class]; ok {
			continue
		}
		s, err := gpu.Lookup(n.Class)
		if err != nil {
			continue
		}
		classFLOPS[n.Class] = s.FP16FLOPS
	}
	classes := make([]gpu.DeviceClass, 0, len(classFLOPS))
	for c := range classFLOPS {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		if classFLOPS[classes[i]] != classFLOPS[classes[j]] {
			return classFLOPS[classes[i]] > classFLOPS[classes[j]]
		}
		return classes[i] < classes[j]
	})

	var splits []PoolSplit
	if len(classes) >= 2 {
		for k := 1; k < len(classes); k++ {
			top := map[gpu.DeviceClass]bool{}
			for _, c := range classes[:k] {
				top[c] = true
			}
			pre := &cluster.Cluster{Name: clu.Name + "-prefill", InterBW: clu.InterBW}
			dec := &cluster.Cluster{Name: clu.Name + "-decode", InterBW: clu.InterBW}
			for _, n := range clu.Nodes {
				if top[n.Class] {
					pre.Nodes = append(pre.Nodes, n)
				} else {
					dec.Nodes = append(dec.Nodes, n)
				}
			}
			splits = append(splits, PoolSplit{Prefill: pre, Decode: dec})
		}
		return splits
	}

	// Homogeneous cluster: carve by device count instead of class.
	total := 0
	for _, n := range clu.Nodes {
		total += n.Count
	}
	seen := map[int]bool{}
	for _, frac := range [][2]int{{1, 3}, {1, 2}, {2, 3}} {
		preCount := total * frac[0] / frac[1]
		if preCount < 1 {
			preCount = 1
		}
		if preCount >= total {
			preCount = total - 1
		}
		if preCount < 1 || seen[preCount] {
			continue
		}
		seen[preCount] = true
		pre := &cluster.Cluster{Name: clu.Name + "-prefill", InterBW: clu.InterBW}
		dec := &cluster.Cluster{Name: clu.Name + "-decode", InterBW: clu.InterBW}
		remaining := preCount
		for _, n := range clu.Nodes {
			if remaining >= n.Count {
				pre.Nodes = append(pre.Nodes, n)
				remaining -= n.Count
				continue
			}
			if remaining > 0 {
				head, tail := n, n
				head.Count = remaining
				tail.Count = n.Count - remaining
				tail.Name = n.Name + "-b"
				pre.Nodes = append(pre.Nodes, head)
				dec.Nodes = append(dec.Nodes, tail)
				remaining = 0
				continue
			}
			dec.Nodes = append(dec.Nodes, n)
		}
		if len(pre.Nodes) > 0 && len(dec.Nodes) > 0 {
			splits = append(splits, PoolSplit{Prefill: pre, Decode: dec})
		}
	}
	return splits
}

// filterBits keeps the bits of src satisfying keep, falling back to src
// itself when the filter would empty the set (a cluster that can only
// hold 4-bit weights should still plan rather than fail).
func filterBits(src []int, keep func(int) bool) []int {
	var out []int
	for _, b := range src {
		if keep(b) {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return append([]int(nil), src...)
	}
	return out
}

// PlanDisaggregated partitions the cluster into a prefill and a decode
// pool and plans each phase separately: the prefill pool with the
// PrefillOnly objective, high-precision bits, and a one-token
// generation budget (its KV lives only until the handoff); the decode
// pool with the DecodeOnly objective, low bits, and a quantized KV
// cache sized for the full batch. The prefill pool keeps the ≥ 8-bit subset of
// Options.Bits (prefill accuracy sets the quality of every later token,
// so it stays near full precision); the decode pool keeps the ≤ 8-bit
// subset (decode is bandwidth-bound; low bits trade FLOPS it doesn't
// need for memory traffic it does) and an 8-bit KV cache. Candidate
// splits are tried strongest-prefill-first; the first split where both
// pools plan feasibly wins. The indicator must cover the union of both
// pools' bit sets (Options.Bits).
func PlanDisaggregated(ctx context.Context, spec *model.Spec, clu *cluster.Cluster, ind *Indicator,
	opts Options, batch workload.Batch) (*DisaggregatedPlan, error) {
	opts = opts.withDefaults()
	preBits := filterBits(opts.Bits, func(b int) bool { return b >= 8 })
	decBits := filterBits(opts.Bits, func(b int) bool { return b <= 8 })

	// The prefill pool never accumulates decode context: each request
	// holds prompt + one generated position, then hands off.
	preBatch := batch
	preBatch.GenTokens = 1
	preBatch.ReserveTokens = 1

	splits := PhaseSplits(clu)
	if len(splits) == 0 {
		return nil, fmt.Errorf("core: cluster %q cannot be split into prefill and decode pools (%w)",
			clu.Name, ErrInfeasible)
	}
	var lastErr error
	for _, sp := range splits {
		preOpts := opts
		preOpts.Bits = preBits
		preOpts.Objective = PrefillOnly
		decOpts := opts
		decOpts.Bits = decBits
		decOpts.BitKV = decodeBitKV
		decOpts.Objective = DecodeOnly

		preAsn, err := New(spec, sp.Prefill, ind, preOpts)
		if err != nil {
			lastErr = err
			continue
		}
		decAsn, err := New(spec, sp.Decode, ind, decOpts)
		if err != nil {
			lastErr = err
			continue
		}
		prePlan, preRep, err := preAsn.Plan(ctx, preBatch)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				lastErr = err
				continue
			}
			return nil, err
		}
		decPlan, decRep, err := decAsn.Plan(ctx, batch)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				lastErr = err
				continue
			}
			return nil, err
		}
		return &DisaggregatedPlan{
			Prefill:        prePlan,
			Decode:         decPlan,
			PrefillCluster: sp.Prefill,
			DecodeCluster:  sp.Decode,
			PrefillReport:  preRep,
			DecodeReport:   decRep,
			PrefillBatch:   preBatch,
		}, nil
	}
	return nil, fmt.Errorf("core: no feasible prefill/decode split of cluster %q: %w", clu.Name, lastErr)
}
