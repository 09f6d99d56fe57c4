// Package capacity is the queueing-grounded fleet planner behind the
// serving tiers: it models each pool of a disaggregated deployment as a
// queueing station whose service times are the online engine's own
// prices (online.Prices), predicts
// queue-wait/TTFT/TBT percentiles and utilization analytically, and
// searches fleet compositions for the cheapest one that meets an SLO.
//
// The prefill pool is modeled exactly as the engine runs it: a single
// bulk server (one prefill group at a time, group size capped at
// MaxPrefillBatch) whose per-group service time depends on the group
// size and the maximum chunk count of its members — an M/G^B/1 queue.
// The embedded Markov chain at service-completion epochs is solved
// numerically, and the waiting-time distribution of a Poisson arrival
// is integrated over the stationary cycle structure. The decode pool is
// a processor-sharing token pump: its concurrency is capped by the KV
// budget, occupancy follows from Little's law as a fixed point, and TBT
// is the decode-step latency at that occupancy.
//
// On top of the analytic core sit a min-cost fleet planner
// (PlanFleet), a metrics advisor for the serve daemon (Advisor), and a
// closed-loop autoscaler (Autoscaler) that races scale-up provisioning
// against preemption reclamation on a scheduler.FleetState.
package capacity

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/online"
	"repro/internal/workload"
)

// SLO is the serving objective the planner sizes a fleet against. Zero
// fields are unconstrained.
type SLO struct {
	// QueueWaitP95 bounds the 95th-percentile queue wait (arrival to
	// prefill start), seconds.
	QueueWaitP95 float64 `json:"queue_wait_p95_seconds,omitempty"`
	// TTFTP95 bounds the 95th-percentile time-to-first-token, seconds.
	TTFTP95 float64 `json:"ttft_p95_seconds,omitempty"`
	// TBTMean bounds the mean time-between-tokens, seconds.
	TBTMean float64 `json:"tbt_mean_seconds,omitempty"`
	// MaxRho caps both pools' utilization (default 0.85): headroom that
	// keeps the queueing model in its accurate regime and absorbs
	// preemption-induced capacity dips.
	MaxRho float64 `json:"max_rho,omitempty"`
}

func (s SLO) withDefaults() SLO {
	if s.MaxRho <= 0 {
		s.MaxRho = 0.85
	}
	return s
}

// WorkloadStats distills a request profile into the quantities the
// queueing model consumes: the chunk-count distribution that drives
// prefill service times, output-length moments that drive decode
// occupancy, and the context-length distribution that drives decode
// step latency.
type WorkloadStats struct {
	ChunkLen int
	// ChunkClasses are the distinct (bucketed) prefill chunk counts,
	// ascending; ChunkProbs is the matching pmf.
	ChunkClasses []int
	ChunkProbs   []float64
	MeanPrompt   float64
	MeanOutput   float64
	// MeanDecodeSteps is E[max(output−1, 0)]: the first token comes from
	// prefill, the rest are decode steps.
	MeanDecodeSteps float64
	// ctxLens/ctxWts is the distribution of a request's mid-generation
	// context length (prompt + half its output) as seen by a decode
	// step, used to estimate the batch-max context. A request occupies
	// the batch for (output−1) steps, so the draws are length-biased by
	// decode-step count.
	ctxLens []float64
	ctxWts  []float64
}

// maxChunkClasses bounds the chunk-count support so the station's
// service-time table stays small; rarer counts merge into their
// probability-weighted bucket mean.
const maxChunkClasses = 12

// AnalyzeWorkload distills profile p at the given prefill chunk length.
func AnalyzeWorkload(p *workload.Profile, chunkLen int) (*WorkloadStats, error) {
	if p == nil || len(p.Requests) == 0 {
		return nil, fmt.Errorf("capacity: empty workload profile")
	}
	if chunkLen <= 0 {
		return nil, fmt.Errorf("capacity: chunk length %d", chunkLen)
	}
	ws := &WorkloadStats{ChunkLen: chunkLen}
	counts := map[int]int{}
	for _, r := range p.Requests {
		counts[online.ChunkCount(r.PromptLen, chunkLen)]++
		ws.MeanPrompt += float64(r.PromptLen)
		ws.MeanOutput += float64(r.OutputLen)
		if r.OutputLen > 1 {
			ws.MeanDecodeSteps += float64(r.OutputLen - 1)
		}
		w := float64(r.OutputLen - 1)
		if w < 1 {
			w = 1
		}
		ws.ctxLens = append(ws.ctxLens, float64(r.PromptLen)+float64(r.OutputLen)/2)
		ws.ctxWts = append(ws.ctxWts, w)
	}
	n := float64(len(p.Requests))
	ws.MeanPrompt /= n
	ws.MeanOutput /= n
	ws.MeanDecodeSteps /= n
	sort.Sort(&ctxByLen{ws.ctxLens, ws.ctxWts})

	distinct := make([]int, 0, len(counts))
	for c := range counts {
		distinct = append(distinct, c)
	}
	sort.Ints(distinct)
	if len(distinct) <= maxChunkClasses {
		for _, c := range distinct {
			ws.ChunkClasses = append(ws.ChunkClasses, c)
			ws.ChunkProbs = append(ws.ChunkProbs, float64(counts[c])/n)
		}
		return ws, nil
	}
	// Merge into equal-probability buckets, each represented by its
	// weighted mean chunk count (service time is near-linear in chunks,
	// so the mean preserves the bucket's service mass).
	target := n / maxChunkClasses
	var acc, accC float64
	flush := func() {
		if acc <= 0 {
			return
		}
		c := int(math.Round(accC / acc))
		if c < 1 {
			c = 1
		}
		// Merge with the previous class if rounding collided.
		if k := len(ws.ChunkClasses); k > 0 && ws.ChunkClasses[k-1] == c {
			ws.ChunkProbs[k-1] += acc / n
		} else {
			ws.ChunkClasses = append(ws.ChunkClasses, c)
			ws.ChunkProbs = append(ws.ChunkProbs, acc/n)
		}
		acc, accC = 0, 0
	}
	for _, c := range distinct {
		w := float64(counts[c])
		acc += w
		accC += w * float64(c)
		if acc >= target {
			flush()
		}
	}
	flush()
	return ws, nil
}

// ctxByLen co-sorts the context lengths and their step weights.
type ctxByLen struct {
	lens []float64
	wts  []float64
}

func (c *ctxByLen) Len() int           { return len(c.lens) }
func (c *ctxByLen) Less(i, j int) bool { return c.lens[i] < c.lens[j] }
func (c *ctxByLen) Swap(i, j int) {
	c.lens[i], c.lens[j] = c.lens[j], c.lens[i]
	c.wts[i], c.wts[j] = c.wts[j], c.wts[i]
}

// CtxQuantile returns the q∈[0,1] quantile of the step-weighted
// mid-generation context-length distribution.
func (ws *WorkloadStats) CtxQuantile(q float64) int {
	if len(ws.ctxLens) == 0 {
		return 0
	}
	total := 0.0
	for _, w := range ws.ctxWts {
		total += w
	}
	cut := q * total
	run := 0.0
	for i, w := range ws.ctxWts {
		run += w
		if run >= cut {
			return int(ws.ctxLens[i])
		}
	}
	return int(ws.ctxLens[len(ws.ctxLens)-1])
}

// BatchMaxCtx estimates the batch-maximum context length a decode step
// sees with v concurrent requests: the expected maximum of v draws,
// approximated by the v/(v+1) quantile.
func (ws *WorkloadStats) BatchMaxCtx(v int) int {
	if v < 1 {
		v = 1
	}
	return ws.CtxQuantile(float64(v) / float64(v+1))
}

// weighted is one (value, probability-mass) atom of a discrete
// distribution.
type weighted struct {
	v float64
	w float64
}

// quantiles returns the qs∈[0,100] percentiles of a weighted sample
// set, in the order asked. It sorts xs in place by value once and reads
// every percentile in one pass over the cumulative mass. No atoms or
// zero total weight yields 0s.
func quantiles(xs []weighted, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	slices.SortFunc(xs, func(a, b weighted) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	total := 0.0
	for _, x := range xs {
		total += x.w
	}
	if total <= 0 {
		return out
	}
	// Visit the percentiles in ascending order: each one's first atom
	// whose running mass reaches its cut comes no earlier than the
	// previous one's.
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(qs[i], qs[j]) })
	k := 0
	run := 0.0
	for _, x := range xs {
		run += x.w
		for ; k < len(order) && run >= total*qs[order[k]]/100-1e-15; k++ {
			out[order[k]] = x.v
		}
	}
	for ; k < len(order); k++ {
		out[order[k]] = xs[len(xs)-1].v
	}
	return out
}

// weightedMean returns the mean of a weighted sample set.
func weightedMean(xs []weighted) float64 {
	var s, w float64
	for _, x := range xs {
		s += x.v * x.w
		w += x.w
	}
	if w <= 0 {
		return 0
	}
	return s / w
}
