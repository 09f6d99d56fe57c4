package core

import (
	"math"
	"slices"
	"sort"
)

// boundEps is the slack added to pruning thresholds: a configuration is
// pruned only when its bound exceeds the threshold by more
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

// lagrangeSteps caps the projected-subgradient steps lagrangian.bound
// takes toward a pruning threshold, and lagrangeAim is how far above
// the threshold, relative to it, each Polyak step aims: a step aimed at
// the threshold itself only approaches it from below.
const (
	lagrangeSteps = 30
	lagrangeAim   = 0.05
)

// lagrangian is the scratch of the Lagrangian bound on one
// configuration's Eq. 4 objective (see bound). One worker reuses one
// across configurations, and every call starts from the same
// multipliers, so a bound is a pure function of the configuration, θ·ω
// and the threshold.
type lagrangian struct {
	// lam and mu weight the stages' prefill and decode sums in place of
	// T^pre_max and T^dec_max; each lies on the simplex over the nDev
	// stages and one last entry for the communication floor.
	lam, mu []float64
	// nu[j] is stage j's memory multiplier in units of scale[j]
	// seconds per byte.
	nu, scale []float64
	// cost[j*nb+bi] is one layer's relaxed cost on stage j at bit index
	// bi, θ·ω aside.
	cost []float64
	// f is the partition DP's row; adv[i*nDev+j] records that its
	// minimum at (layer i, stage j) entered stage j at layer i.
	f   []float64
	adv []bool
	// pre, dec and mem are the minimizing assignment's per-stage sums,
	// and gl, gm the subgradient in lam and mu.
	pre, dec []float64
	mem      []int64
	gl, gm   []float64
	// sorted is the simplex projection's scratch.
	sorted []float64
}

// bound returns an admissible lower bound on the Eq. 4 objective of any
// feasible assignment under oc, where thetaOmega[i*nb+bi] is θ·ω of
// layer i at bit index bi. It relaxes each max term to a weighted sum:
// T^pre_max ≥ Σⱼ λⱼ·Pⱼ + λ_c·max_j commPreⱼ for λ on the simplex over
// the stages' prefill sums Pⱼ and the communication floor (likewise μ
// for decode), and it dualizes each stage's memory budget with νⱼ ≥ 0.
// What is left separates per layer, and its minimum over contiguous
// partitions with every stage non-empty and over bitwidths is an
// O(L·nDev·nb) DP. Starting from λ and μ inversely proportional to each
// stage's cheapest per-layer time (the harmonic-mean floor) and ν = 0,
// it takes up to steps projected-subgradient steps, each a Polyak step
// aimed lagrangeAim above target, and returns the best value seen less
// a rounding margin. It stops as soon as that value exceeds target. A
// configuration no stage partition fits at its cheapest footprint has
// no feasible assignment and bound +Inf.
func (lg *lagrangian) bound(oc *orderingCosts, thetaOmega []float64, target float64, steps int) float64 {
	nDev, nb := len(oc.devs), len(oc.bits)
	L := len(thetaOmega) / nb
	if !fits(oc, L) {
		return math.Inf(1)
	}
	lg.lam, lg.mu = resize(lg.lam, nDev+1), resize(lg.mu, nDev+1)
	lg.gl, lg.gm = resize(lg.gl, nDev+1), resize(lg.gm, nDev+1)
	lg.nu, lg.scale = resize(lg.nu, nDev), resize(lg.scale, nDev)
	lg.cost, lg.f = resize(lg.cost, nDev*nb), resize(lg.f, nDev)
	lg.adv = resize(lg.adv, L*nDev)
	lg.pre, lg.dec, lg.mem = resize(lg.pre, nDev), resize(lg.dec, nDev), resize(lg.mem, nDev)
	lg.sorted = resize(lg.sorted, nDev+1)
	harmonic(lg.lam, func(j, bi int) float64 { return oc.prefillLayer(j, bi) }, nb)
	harmonic(lg.mu, func(j, bi int) float64 { return oc.decodeLayer(j, bi) }, nb)
	clear(lg.nu)
	clear(lg.scale)
	var commPre, commDec float64
	for j := 0; j < nDev; j++ {
		commPre, commDec = max(commPre, oc.commPre[j]), max(commDec, oc.commDec[j])
	}

	best := math.Inf(-1)
	for k := 0; ; k++ {
		v, margin := lg.value(oc, thetaOmega, commPre, commDec)
		if lb := v - margin; lb > best { // a NaN is never kept
			best = lb
		}
		if k == steps || best > target || math.IsInf(target, 1) || math.IsNaN(v) {
			break
		}
		if k == 0 {
			// ν is kept in units of |v|/budget seconds per byte, so a
			// step moves it as far, relative to the objective, as it
			// moves λ and μ; bytes and seconds differ by ~10¹⁸.
			for j := range lg.scale {
				lg.scale[j] = math.Abs(v) / float64(max(oc.memBudget[j], 1))
			}
		}
		// Subgradient: ∂/∂λⱼ = aPre·Pⱼ, ∂/∂νⱼ = Mⱼ − budgetⱼ.
		for j := 0; j < nDev; j++ {
			lg.gl[j], lg.gm[j] = oc.aPre*lg.pre[j], oc.aDec*lg.dec[j]
		}
		lg.gl[nDev], lg.gm[nDev] = oc.aPre*commPre, oc.aDec*commDec
		norm := tangentNorm(lg.gl) + tangentNorm(lg.gm)
		for j := 0; j < nDev; j++ {
			g := lg.scale[j] * float64(lg.mem[j]-oc.memBudget[j])
			if lg.nu[j] > 0 || g > 0 {
				norm += g * g
			}
		}
		if !(norm > 0) || math.IsInf(norm, 1) {
			break // a zero subgradient (the multipliers are optimal) or a non-finite one
		}
		step := (target + lagrangeAim*math.Abs(target) - v) / norm
		for j := range lg.gl {
			lg.gl[j] = lg.lam[j] + step*lg.gl[j]
			lg.gm[j] = lg.mu[j] + step*lg.gm[j]
		}
		projectSimplex(lg.lam, lg.gl, lg.sorted)
		projectSimplex(lg.mu, lg.gm, lg.sorted)
		for j := 0; j < nDev; j++ {
			lg.nu[j] = max(0, lg.nu[j]+step*lg.scale[j]*float64(lg.mem[j]-oc.memBudget[j]))
		}
	}
	return best
}

// value returns the Lagrangian at the current multipliers and a margin
// that bounds its rounding error, and leaves the minimizing assignment's
// per-stage sums in pre, dec and mem.
func (lg *lagrangian) value(oc *orderingCosts, thetaOmega []float64, commPre, commDec float64) (v, margin float64) {
	nDev, nb := len(oc.devs), len(oc.bits)
	L := len(thetaOmega) / nb
	nGen := float64(oc.batch.GenTokens - 1)
	penalty := 0.0 // Σⱼ νⱼ·budgetⱼ
	for j := 0; j < nDev; j++ {
		wp, wd := 1+oc.aPre*lg.lam[j], nGen+oc.aDec*lg.mu[j]
		nu := lg.nu[j] * lg.scale[j]
		for bi := 0; bi < nb; bi++ {
			lg.cost[j*nb+bi] = wp*oc.prefillLayer(j, bi) + wd*oc.decodeLayer(j, bi) + nu*float64(oc.memLayer[bi])
		}
		penalty += nu * float64(oc.memBudget[j])
	}
	// f[j] is the least relaxed cost of layers 0..i with layer i on
	// stage j; stage j is reachable at layer i when j ≤ i and the
	// remaining stages fit the remaining layers.
	f := lg.f
	for i := 0; i < L; i++ {
		tw := thetaOmega[i*nb : i*nb+nb]
		for j := min(i, nDev-1); j >= max(0, nDev-L+i); j-- {
			c := lg.cost[j*nb : j*nb+nb]
			m := c[0] + tw[0]
			for bi := 1; bi < nb; bi++ {
				m = min(m, c[bi]+tw[bi])
			}
			switch {
			case i == 0:
				f[j] = m
			case j == i || j > 0 && f[j-1] < f[j]:
				f[j], lg.adv[i*nDev+j] = f[j-1]+m, true
			default:
				f[j], lg.adv[i*nDev+j] = f[j]+m, false
			}
		}
	}
	// Walk the minimizing partition back for the subgradient.
	clear(lg.pre)
	clear(lg.dec)
	clear(lg.mem)
	for i, j := L-1, nDev-1; i >= 0; i-- {
		c, tw := lg.cost[j*nb:j*nb+nb], thetaOmega[i*nb:i*nb+nb]
		arg := 0
		for bi := 1; bi < nb; bi++ {
			if c[bi]+tw[bi] < c[arg]+tw[arg] {
				arg = bi
			}
		}
		lg.pre[j] += oc.prefillLayer(j, arg)
		lg.dec[j] += oc.decodeLayer(j, arg)
		lg.mem[j] += oc.memLayer[arg]
		if i > 0 && lg.adv[i*nDev+j] {
			j--
		}
	}
	comm := oc.aPre*lg.lam[nDev]*commPre + oc.aDec*lg.mu[nDev]*commDec
	v = oc.masterConst + comm + f[nDev-1] - penalty
	// v and eq4 each round O(L·nb) times, each time within 2⁻⁵³ of the
	// magnitudes summed here, and where v comes near an objective the
	// objective is of that magnitude too; 1e-9 of it covers both by
	// orders of magnitude.
	margin = 1e-9 * (math.Abs(oc.masterConst) + comm + math.Abs(f[nDev-1]) + penalty)
	return v, margin
}

// fits reports whether some partition of L layers into oc's stages,
// every stage non-empty, fits every stage's budget at the cheapest
// per-layer footprint.
func fits(oc *orderingCosts, L int) bool {
	small := slices.Min(oc.memLayer)
	if small <= 0 {
		return true
	}
	room := 0
	for _, b := range oc.memBudget {
		n := b / small
		if n < 1 {
			return false
		}
		room += int(min(n, int64(L)))
	}
	return room >= L
}

// harmonic sets w[:nDev] inversely proportional to each stage's cheapest
// per-layer cost(j, bi) and w[nDev] to 0, which at ν = 0 makes the
// relaxed bottleneck term at least the harmonic-mean floor L/Σⱼ 1/pⱼ.
// A stage with no positive cost makes the weights uniform.
func harmonic(w []float64, cost func(j, bi int) float64, nb int) {
	nDev := len(w) - 1
	sum := 0.0
	for j := 0; j < nDev; j++ {
		p := math.Inf(1)
		for bi := 0; bi < nb; bi++ {
			p = min(p, cost(j, bi))
		}
		w[j] = 1 / p
		sum += w[j]
	}
	w[nDev] = 0
	if !(sum > 0) || math.IsInf(sum, 1) || math.IsNaN(sum) {
		for j := 0; j < nDev; j++ {
			w[j] = 1 / float64(nDev)
		}
		return
	}
	for j := 0; j < nDev; j++ {
		w[j] /= sum
	}
}

// tangentNorm returns the squared norm of g less its mean, the part of
// g that moves a point within the simplex.
func tangentNorm(g []float64) float64 {
	mean := 0.0
	for _, x := range g {
		mean += x
	}
	mean /= float64(len(g))
	n := 0.0
	for _, x := range g {
		n += (x - mean) * (x - mean)
	}
	return n
}

// projectSimplex sets w to the Euclidean projection of v onto the
// probability simplex, using sorted (len(v)) as scratch.
func projectSimplex(w, v, sorted []float64) {
	copy(sorted, v)
	slices.Sort(sorted)
	sum, tau := 0.0, 0.0
	for k := len(sorted) - 1; k >= 0; k-- {
		sum += sorted[k]
		if t := (sum - 1) / float64(len(sorted)-k); sorted[k] > t {
			tau = t
		} else {
			break
		}
	}
	for j := range w {
		w[j] = max(0, v[j]-tau)
	}
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
