package core

import (
	"math"
	"sort"
)

// boundEps is the slack added to pruning thresholds: a configuration is
// pruned only when its optimistic bound exceeds the threshold by more
// than boundEps, so float noise can never prune a configuration that
// ties with a shortlisted one.
const boundEps = 1e-9

// optimisticBound returns an admissible lower bound on the Eq. 4
// objective of *any* assignment under the configuration: every layer
// pays at least its cheapest (device, bitwidth) combined
// prefill+decode+quality cost, and the two max terms are bounded by the
// communication floors and by the harmonic-mean stage floor over each
// device's cheapest per-layer work. A configuration whose bound exceeds the current
// k-th best candidate objective cannot appear in the shortlist of an
// exhaustive search, so pruning on this bound preserves bit-identical
// plans.
func optimisticBound(oc *orderingCosts, ind *Indicator, theta float64) float64 {
	nDev := len(oc.devs)
	L := ind.Layers()
	kappa := float64(oc.batch.Chunks)
	nGen := float64(oc.batch.GenTokens - 1)
	if nGen < 0 {
		nGen = 0
	}
	nb := len(oc.bits)
	minComb := make([]float64, nb) // min_j κ·pre[j][b] + (n-1)·dec[j][b]
	for bi := 0; bi < nb; bi++ {
		minComb[bi] = math.Inf(1)
		for j := 0; j < nDev; j++ {
			p := kappa * oc.pre[j][bi]
			d := oc.dec[j][bi]
			if c := p + nGen*d; c < minComb[bi] {
				minComb[bi] = c
			}
		}
	}
	// Harmonic-mean stage floor: stage j spends at least n_j·p_j on its
	// n_j layers (p_j = device j's cheapest per-layer cost), so the
	// bottleneck satisfies max_j n_j·p_j ≥ L / Σ_j 1/p_j. This dominates
	// the even-spread floor L·min_j p_j / nDev on heterogeneous devices,
	// where slow devices cannot be wished away.
	var invPre, invDec float64
	for j := 0; j < nDev; j++ {
		pj, dj := math.Inf(1), math.Inf(1)
		for bi := 0; bi < nb; bi++ {
			if p := kappa * oc.pre[j][bi]; p < pj {
				pj = p
			}
			if d := oc.dec[j][bi]; d < dj {
				dj = d
			}
		}
		if pj > 0 {
			invPre += 1 / pj
		} else {
			invPre = math.Inf(1)
		}
		if dj > 0 {
			invDec += 1 / dj
		} else {
			invDec = math.Inf(1)
		}
	}
	layerSum := 0.0
	for i := 0; i < L; i++ {
		best := math.Inf(1)
		for bi := 0; bi < nb; bi++ {
			if c := minComb[bi] + theta*ind.Omega[i][bi]; c < best {
				best = c
			}
		}
		layerSum += best
	}
	var preFloor, decFloor float64
	for j := 0; j < nDev; j++ {
		if oc.commPre[j] > preFloor {
			preFloor = oc.commPre[j]
		}
		if oc.commDec[j] > decFloor {
			decFloor = oc.commDec[j]
		}
	}
	if invPre > 0 && !math.IsInf(invPre, 1) {
		if spread := float64(L) / invPre; spread > preFloor {
			preFloor = spread
		}
	}
	if invDec > 0 && !math.IsInf(invDec, 1) {
		if spread := float64(L) / invDec; spread > decFloor {
			decFloor = spread
		}
	}
	lb := oc.masterConst + layerSum + oc.aPre*preFloor + oc.aDec*decFloor
	// Shave a relative margin so accumulated rounding in the bound can
	// never overstate the true objective.
	return lb * (1 - 1e-9)
}

// kthBestObjective returns the K-th smallest objective among the
// feasible evaluated candidates, or +Inf when fewer than K exist (no
// pruning threshold can then be trusted and every configuration must be
// evaluated).
func kthBestObjective(objs []float64, k int) float64 {
	if len(objs) < k {
		return math.Inf(1)
	}
	sorted := append([]float64(nil), objs...)
	sort.Float64s(sorted)
	return sorted[k-1]
}
