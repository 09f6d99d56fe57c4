package stats

import "sort"

// Reservoir is a fixed-capacity uniform random sample over a stream of
// observations (Vitter's Algorithm R), driven by the package's seeded
// RNG so the kept sample — and therefore every percentile digest made
// from it — is deterministic for a given (seed, stream) pair. It exists
// so long-running metric populations (a daemon's per-request latencies)
// can be digested at O(capacity) cost with bounded memory instead of
// accumulating every sample forever. The running count and sum are
// exact; only the order statistics are estimated from the sample.
//
// A Reservoir is not safe for concurrent use; callers serialize access
// (the online engine holds its mutex across Add and Snapshot).
type Reservoir struct {
	rng *RNG
	xs  []float64
	cap int
	n   int64
	sum float64
}

// NewReservoir returns an empty reservoir keeping at most capacity
// samples. It panics if capacity <= 0.
func NewReservoir(capacity int, seed uint64) *Reservoir {
	if capacity <= 0 {
		panic("stats: NewReservoir with non-positive capacity")
	}
	return &Reservoir{rng: NewRNG(seed), xs: make([]float64, 0, capacity), cap: capacity}
}

// Add observes one value. Until the reservoir fills it is kept
// verbatim; afterwards it replaces a uniformly chosen kept sample with
// probability capacity/n, so every observation is equally likely to be
// in the final sample.
func (r *Reservoir) Add(x float64) {
	r.n++
	r.sum += x
	if len(r.xs) < r.cap {
		r.xs = append(r.xs, x)
		return
	}
	if j := r.rng.Uint64() % uint64(r.n); j < uint64(r.cap) {
		r.xs[j] = x
	}
}

// Count returns the total number of observations (not the kept sample
// size).
func (r *Reservoir) Count() int64 { return r.n }

// Len returns the number of samples currently held (≤ capacity).
func (r *Reservoir) Len() int { return len(r.xs) }

// Mean returns the exact running mean of every observation, or 0 when
// empty.
func (r *Reservoir) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Quantiles returns the requested percentiles (0-100) estimated from
// the kept sample in one O(len log len) pass, or zeros when empty.
func (r *Reservoir) Quantiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(r.xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), r.xs...)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// Summary is a percentile digest of one latency population.
type Summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary digests the reservoir: the count and mean are exact over
// every observation ever added, the percentiles are estimated from the
// kept sample in one sorted pass — O(capacity) per call regardless of
// how many observations were added. A nil or empty reservoir digests
// to the zero Summary.
func (r *Reservoir) Summary() Summary {
	if r == nil || r.n == 0 {
		return Summary{}
	}
	qs := r.Quantiles(50, 95, 99)
	return Summary{Count: int(r.n), Mean: r.Mean(), P50: qs[0], P95: qs[1], P99: qs[2]}
}

// percentileSorted is the one percentile rule (linear interpolation
// between closest ranks) over an already-sorted, non-empty slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if frac == 0 {
		// Exact rank: return the sample itself, not an interpolation
		// with a zero weight (which turns an infinite neighbour into NaN).
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
