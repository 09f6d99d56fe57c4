package capacity

import (
	"fmt"
	"math"

	"repro/internal/online"
	"repro/internal/stats"
)

// PrefillStation is the M/G^B/1 model of the engine's prefill pool: one
// bulk server, group size capped at B, per-group service time drawn
// from the (group size, max chunk count) prices of online.Prices — the
// ones the engine charges at run time.
type PrefillStation struct {
	// B is the bulk size (the engine's MaxPrefillBatch).
	B int
	// Lambda is the arrival rate, requests/second.
	Lambda float64
	// Rho is the offered load against full-batch capacity:
	// λ·E[T(B)]/B. The station saturates as Rho → 1.
	Rho float64
	// BusyFraction is the stationary fraction of time the server is in
	// service (equals Rho only in the full-batching limit; at low load
	// small groups make the server busier per request).
	BusyFraction float64
	// Saturated marks λ at or beyond the station's service capacity;
	// wait percentiles are +Inf and the stationary solve is skipped.
	Saturated bool
	// MeanServiceB is E[T(B, max-chunk-of-B-draws)] — the full-group
	// service time that paces a backlogged queue.
	MeanServiceB float64

	// MeanWait and WaitP50/P95/P99 are the predicted queue waits
	// (arrival → prefill start) of a Poisson arrival.
	MeanWait float64
	WaitP50  float64
	WaitP95  float64
	WaitP99  float64
	// TTFTP50/P95 add the joined group's own prefill service.
	TTFTP50 float64
	TTFTP95 float64

	// waitDist and ttftDist are the weighted atoms behind the quantiles,
	// kept so mixtures over rate segments (a diurnal day) can combine
	// exact distributions instead of percentiles.
	waitDist []weighted
	ttftDist []weighted
}

// chainStates bounds the embedded Markov chain's queue-length support.
// The tail decays geometrically at rate ~Rho per B requests, so 512
// states cover the planner's Rho ≤ 0.9 operating regime to far beyond
// double precision; heavier loads flag Saturated instead.
const chainStates = 512

// uPhases discretizes the arrival's uniform phase within the service
// it lands in.
const uPhases = 16

// SolvePrefill builds and solves the prefill station for arrival rate
// lambda on the price book's prefill plan and cluster and the
// workload's chunk-count distribution, which must be drawn at the
// prices' chunk length. Each (group size, chunk count) service time is
// the price the engine charges for that prefill group.
func SolvePrefill(p *online.Prices, ws *WorkloadStats, lambda float64) (*PrefillStation, error) {
	cfg := p.Config()
	if ws.ChunkLen != cfg.ChunkLen {
		return nil, fmt.Errorf("capacity: workload stats at chunk length %d, config at %d", ws.ChunkLen, cfg.ChunkLen)
	}
	b := cfg.MaxPrefillBatch
	st := &PrefillStation{B: b, Lambda: lambda}
	if lambda < 0 {
		return nil, fmt.Errorf("capacity: negative arrival rate %v", lambda)
	}
	nc := len(ws.ChunkClasses)
	if nc == 0 {
		return nil, fmt.Errorf("capacity: workload has no chunk classes")
	}

	// Service-time table T[g-1][ci] for a group of g requests whose max
	// chunk count is class ci.
	T := make([][]float64, b)
	for g := 1; g <= b; g++ {
		T[g-1] = make([]float64, nc)
		for ci, chunks := range ws.ChunkClasses {
			sec, err := p.Prefill(g, chunks)
			if err != nil {
				return nil, fmt.Errorf("capacity: prefill service time (g=%d, chunks=%d): %w", g, chunks, err)
			}
			T[g-1][ci] = sec
		}
	}

	// maxPMF[g-1][ci]: P(max chunk class of g iid draws = ci), from the
	// chunk-count CDF — the engine sizes a group's prefill by the
	// longest member.
	cdf := make([]float64, nc)
	run := 0.0
	for i, p := range ws.ChunkProbs {
		run += p
		cdf[i] = run
	}
	maxPMF := make([][]float64, b)
	for g := 1; g <= b; g++ {
		maxPMF[g-1] = make([]float64, nc)
		prev := 0.0
		for i := range cdf {
			cur := math.Pow(cdf[i], float64(g))
			maxPMF[g-1][i] = cur - prev
			prev = cur
		}
	}

	for ci := range ws.ChunkClasses {
		st.MeanServiceB += maxPMF[b-1][ci] * T[b-1][ci]
	}
	if lambda == 0 {
		return st, nil // idle station: all-zero predictions
	}
	st.Rho = lambda * st.MeanServiceB / float64(b)
	if st.Rho >= 0.98 {
		st.Saturated = true
		st.BusyFraction = 1
		st.MeanWait = math.Inf(1)
		st.WaitP50, st.WaitP95, st.WaitP99 = math.Inf(1), math.Inf(1), math.Inf(1)
		st.TTFTP50, st.TTFTP95 = math.Inf(1), math.Inf(1)
		return st, nil
	}

	pi, err := st.solveChain(T, maxPMF)
	if err != nil {
		return nil, err
	}
	st.integrate(pi, T, maxPMF)
	return st, nil
}

// solveChain solves the stationary distribution of the queue length at
// service-completion epochs: from state q the server takes
// g = min(max(q,1), B) requests (after an idle period when q = 0), the
// group's class follows maxPMF, and arrivals during the service are
// Poisson(λ·T). Truncated tail mass is folded into the last state.
func (st *PrefillStation) solveChain(T, maxPMF [][]float64) ([]float64, error) {
	n := chainStates
	P := make([][]float64, n)
	for q := 0; q < n; q++ {
		P[q] = make([]float64, n)
		g := q
		if g == 0 {
			g = 1 // idle → first arrival opens a singleton group
		}
		if g > st.B {
			g = st.B
		}
		backlog := q - g
		if backlog < 0 {
			backlog = 0
		}
		pmf := maxPMF[g-1]
		if q == 0 {
			// From idle the opening group is one single fresh arrival:
			// its chunk class is a single draw, not a max of g.
			pmf = maxPMF[0]
		}
		for ci, pc := range pmf {
			if pc <= 1e-15 {
				continue
			}
			mean := st.Lambda * T[g-1][ci]
			// Walk the Poisson pmf of arrivals during the service.
			pk := math.Exp(-mean)
			cum := 0.0
			for k := 0; ; k++ {
				next := backlog + k
				if next >= n-1 {
					P[q][n-1] += pc * (1 - cum)
					break
				}
				P[q][next] += pc * pk
				cum += pk
				if cum >= 1-1e-12 {
					break
				}
				pk *= mean / float64(k+1)
			}
		}
	}
	// Stationary: π(P − I) = 0 with Σπ = 1 → solve (Pᵀ − I)π = 0,
	// last balance equation replaced by the normalization.
	A := make([][]float64, n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		A[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			A[i][j] = P[j][i]
		}
		A[i][i] -= 1
	}
	for j := 0; j < n; j++ {
		A[n-1][j] = 1
	}
	rhs[n-1] = 1
	pi, err := stats.SolveLinear(A, rhs)
	if err != nil {
		return nil, fmt.Errorf("capacity: stationary solve: %w", err)
	}
	tail := pi[n-1]
	for i, v := range pi {
		if v < 0 {
			pi[i] = 0
		}
	}
	if tail > 1e-4 {
		st.Saturated = true
	}
	return pi, nil
}

// integrate computes the time-stationary busy fraction and the
// waiting-time/TTFT distribution of a Poisson arrival (PASTA): the
// arrival lands in a cycle picked length-biased from the stationary
// completion-epoch structure, at a uniform phase; requests ahead of it
// are the cycle's backlog plus the Poisson arrivals of the elapsed
// phase; each full group of B ahead costs one MeanServiceB.
func (st *PrefillStation) integrate(pi []float64, T, maxPMF [][]float64) {
	var busyTime, idleTime float64
	type cell struct {
		q, g, ci int
		t, w     float64 // service seconds, time-mass weight
	}
	var cells []cell
	for q, pq := range pi {
		if pq <= 1e-12 {
			continue
		}
		g := q
		if g == 0 {
			g = 1
		}
		if g > st.B {
			g = st.B
		}
		pmf := maxPMF[g-1]
		if q == 0 {
			pmf = maxPMF[0]
			idleTime += pq / st.Lambda
		}
		for ci, pc := range pmf {
			if pc <= 1e-12 {
				continue
			}
			t := T[g-1][ci]
			w := pq * pc * t
			busyTime += w
			if w > 1e-12 {
				cells = append(cells, cell{q: q, g: g, ci: ci, t: t, w: w})
			}
		}
	}
	cycle := busyTime + idleTime
	if cycle <= 0 {
		return
	}
	st.BusyFraction = busyTime / cycle

	// Idle arrivals wait zero and open a singleton group: their TTFT is
	// that group's own service, one chunk draw.
	st.waitDist = append(st.waitDist, weighted{v: 0, w: idleTime})
	for ci, pc := range maxPMF[0] {
		if pc > 1e-12 {
			st.ttftDist = append(st.ttftDist, weighted{v: T[0][ci], w: idleTime * pc})
		}
	}

	// Busy arrivals: phase u through the cell's service, j ahead.
	for _, c := range cells {
		backlog := c.q - c.g
		if backlog < 0 {
			backlog = 0
		}
		for i := 0; i < uPhases; i++ {
			u := (float64(i) + 0.5) / uPhases
			wu := c.w / uPhases
			mean := st.Lambda * u * c.t
			remain := (1 - u) * c.t
			pk := math.Exp(-mean)
			cum := 0.0
			for k := 0; ; k++ {
				j := backlog + k
				wait := remain + math.Floor(float64(j)/float64(st.B))*st.MeanServiceB
				wjk := wu * pk
				if k > 0 && cum >= 1-1e-9 {
					wjk = wu * (1 - (cum - pk)) // fold the tail into the last atom
				}
				st.waitDist = append(st.waitDist, weighted{v: wait, w: wjk})
				// The group it joins: the j mod B peers already ahead of
				// it in the partial group, plus a Poisson number of later
				// arrivals that land during its wait and fill the group
				// toward B. TTFT adds the joined group's own service:
				// spread the atom over joiner counts and the group's
				// max-chunk classes so the service-time tail survives
				// into the TTFT percentiles (negligible atoms keep the
				// class-mean value).
				base := j%st.B + 1
				emean := st.Lambda * wait
				pe := math.Exp(-emean)
				ecum := 0.0
				for e := 0; ; e++ {
					gj := base + e
					we := wjk * pe
					if gj >= st.B {
						gj = st.B
						we = wjk * (1 - ecum) // fold the joiner tail at B
					}
					if we > 1e-8 {
						for ci, pc := range maxPMF[gj-1] {
							if pc > 1e-12 {
								st.ttftDist = append(st.ttftDist, weighted{v: wait + T[gj-1][ci], w: we * pc})
							}
						}
					} else if we > 0 {
						tj := 0.0
						for ci, pc := range maxPMF[gj-1] {
							tj += pc * T[gj-1][ci]
						}
						st.ttftDist = append(st.ttftDist, weighted{v: wait + tj, w: we})
					}
					ecum += pe
					if gj == st.B || ecum >= 1-1e-9 {
						break
					}
					pe *= emean / float64(e+1)
				}
				cum += pk
				if cum >= 1-1e-9 {
					break
				}
				pk *= mean / float64(k+1)
			}
		}
	}

	st.MeanWait = weightedMean(st.waitDist)
	w := quantiles(st.waitDist, 50, 95, 99)
	st.WaitP50, st.WaitP95, st.WaitP99 = w[0], w[1], w[2]
	t := quantiles(st.ttftDist, 50, 95)
	st.TTFTP50, st.TTFTP95 = t[0], t[1]
}

// MixWaitTTFT combines several stations' exact wait/TTFT distributions
// into mixture quantiles, weighting each station by its share of
// arrivals — the day-level prediction for a diurnal rate profile solved
// segment by segment. A saturated segment contributes its weight as an
// atom at +Inf, so quantiles past the combined healthy mass go to +Inf.
// qs are percentiles in [0,100]; it returns the wait quantiles followed
// by the TTFT quantiles, in order.
func MixWaitTTFT(stations []*PrefillStation, weights []float64, qs ...float64) (waits, ttfts []float64) {
	var waitMix, ttftMix []weighted
	for i, st := range stations {
		w := weights[i]
		if w <= 0 {
			continue
		}
		if st.Saturated {
			waitMix = append(waitMix, weighted{v: math.Inf(1), w: w})
			ttftMix = append(ttftMix, weighted{v: math.Inf(1), w: w})
			continue
		}
		if len(st.waitDist) == 0 {
			// Zero-rate segment: everyone waits zero.
			waitMix = append(waitMix, weighted{v: 0, w: w})
			ttftMix = append(ttftMix, weighted{v: 0, w: w})
			continue
		}
		var total float64
		for _, a := range st.waitDist {
			total += a.w
		}
		for _, a := range st.waitDist {
			waitMix = append(waitMix, weighted{v: a.v, w: w * a.w / total})
		}
		total = 0
		for _, a := range st.ttftDist {
			total += a.w
		}
		for _, a := range st.ttftDist {
			ttftMix = append(ttftMix, weighted{v: a.v, w: w * a.w / total})
		}
	}
	return quantiles(waitMix, qs...), quantiles(ttftMix, qs...)
}
