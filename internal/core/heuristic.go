package core

import "math"

// transferSearch is the incremental state of the bitwidth-transfer
// search on its current assignment cur: cur's per-stage sums, each
// stage's first layer, each layer's prefix of its stage's sums and the
// prefix of Σ ω. Every move is first priced by an O(1) estimate from
// these sums (see estimate); only a move the estimate cannot rule out
// is summed exactly, as evaluate sums it (see score), so every accepted
// move, objective and plan is bit-identical to scoring a full copy. Its
// buffers are reused by every reset and every configure.
type transferSearch struct {
	oc    *orderingCosts
	ind   *Indicator
	theta float64
	// nb is the number of candidate bitwidths.
	nb int
	// pk[j*nb+bi] and dk[j*nb+bi] are one layer's prefill (× κ) and
	// decode costs on stage j at bit index bi.
	pk, dk []float64
	// margin bounds |estimate − exact| of a move's objective and
	// qMargin that of its Σ ω (see configure).
	margin, qMargin float64

	// cur is the current assignment.
	cur *assignment
	// first[j] is the first layer of stage j; first[nDev] is the layer
	// count.
	first []int
	// pre, dec, mem are cur's per-stage sums; estimate and score
	// overwrite the touched stages and put them back.
	pre, dec []float64
	mem      []int64
	// lp[i], ld[i] and omega[i] are layer i's prefill and decode cost
	// and ω at its current stage and bit.
	lp, ld, omega []float64
	// prePfx[i] and decPfx[i] are the sums of lp and ld over the layers
	// of layer i's stage before i; qPre[i] is Σ ω over layers < i.
	prePfx, decPfx, qPre []float64
	// bitMoves[(j*nb+old)*nb+bit] prices moving one stage-j layer from
	// bit index old to bit, which depends on nothing else; rebuild
	// clears it.
	bitMoves []pricedBit
}

// pricedBit is one entry of transferSearch.bitMoves: an estimated
// latency and its (exact) memory feasibility, once priced.
type pricedBit struct {
	latency          float64
	feasible, priced bool
}

// configure points s at one configuration, reusing its buffers where
// they are large enough.
//
// It also sets the margins that let transfer skip a move on its
// estimate. Let u = 2⁻⁵³ and γₙ = n·u/(1−n·u): a float sum of n+1
// terms added one at a time lies within γₙ·Σ|terms| of the real sum.
// Let P = L·max|pk| + max commPre, D = L·max|dk| + max commDec and
// W = L·max|ω|; P bounds every prefill stage sum, their Σⱼ and T^pre_max
// (D likewise for decode), and W bounds Σ ω.
//   - The exact re-sum of a stage adds at most L terms and lies within
//     γ_L·P of the real sum. The estimate (S − old) + new adds at most
//     L+2 terms (S's own, then two more) of absolute sum at most 3P, and
//     lies within 3γ_{L+1}·P. So each of the (at most two) touched stages
//     differs by at most δ = 4γ_{L+1}·P, and Σ ω by 4γ_{L+1}·W.
//   - Taking the max with a constant is 1-Lipschitz, so T^pre_max
//     differs by at most δ. Σⱼ adds nDev stage sums, two of them off by
//     δ, and rounds within γ_nDev·P on each side: 2δ + 2γ_nDev·P.
//   - Eq. 4 scales by aPre, n−1, aDec and θ (one rounding u each, on
//     each side) and adds six terms (γ₅ on each side).
//
// With A = |aPre|·P + P + |n−1|·D + |aDec|·D + |masterConst| + |θ|·W
// this sums to |estimate − exact| ≤ (8γ_{L+1} + 2γ_nDev + 2γ₅ + 4u)·A
// ≤ 8γ_{L+nDev+10}·A. The margin is four times that, 32γ_{L+nDev+16}·A,
// which also covers the (1+γ) factors dropped above and the rounding of
// the test estimate − margin itself; qMargin is likewise
// 16γ_{L+16}·W. A non-finite cost makes a margin Inf or NaN, and then
// no move is skipped (see lowerBound).
func (s *transferSearch) configure(oc *orderingCosts, ind *Indicator, theta float64) {
	nDev, nb, L := len(oc.devs), len(oc.bits), ind.Layers()
	s.oc, s.ind, s.theta, s.nb = oc, ind, theta, nb
	s.pk, s.dk = resize(s.pk, nDev*nb), resize(s.dk, nDev*nb)
	var pkMax, dkMax, commPre, commDec, wMax float64
	for j := 0; j < nDev; j++ {
		for bi := 0; bi < nb; bi++ {
			s.pk[j*nb+bi] = oc.prefillLayer(j, bi)
			s.dk[j*nb+bi] = oc.decodeLayer(j, bi)
			pkMax, dkMax = max(pkMax, math.Abs(s.pk[j*nb+bi])), max(dkMax, math.Abs(s.dk[j*nb+bi]))
		}
		commPre, commDec = max(commPre, math.Abs(oc.commPre[j])), max(commDec, math.Abs(oc.commDec[j]))
	}
	for _, row := range ind.Omega {
		for _, w := range row[:nb] {
			wMax = max(wMax, math.Abs(w))
		}
	}
	gamma := func(n int) float64 { nu := float64(n) * 0x1p-53; return nu / (1 - nu) }
	P, D, W := float64(L)*pkMax+commPre, float64(L)*dkMax+commDec, float64(L)*wMax
	A := math.Abs(oc.aPre)*P + P + math.Abs(float64(oc.batch.GenTokens-1))*D + math.Abs(oc.aDec)*D +
		math.Abs(oc.masterConst) + math.Abs(theta)*W
	s.margin, s.qMargin = 32*gamma(L+nDev+16)*A, 16*gamma(L+16)*W

	if s.cur == nil {
		s.cur = new(assignment)
	}
	s.cur.stageOf, s.cur.bitIdx = resize(s.cur.stageOf, L), resize(s.cur.bitIdx, L)
	s.first = resize(s.first, nDev+1)
	s.pre, s.dec, s.mem = resize(s.pre, nDev), resize(s.dec, nDev), resize(s.mem, nDev)
	s.lp, s.ld, s.omega = resize(s.lp, L), resize(s.ld, L), resize(s.omega, L)
	s.prePfx, s.decPfx, s.qPre = resize(s.prePfx, L), resize(s.decPfx, L), resize(s.qPre, L+1)
	s.bitMoves = resize(s.bitMoves, nDev*nb*nb)
}

// resize returns buf with length n, reallocated only when its capacity
// is short. The contents are not kept.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// transfer implements the §IV-C heuristic: starting from start, it
// repeatedly applies transformation rules C = (b_st, b_pi, num_s) —
// bitwidth conversions and boundary-layer repartitions between
// straggler and pioneer stages — accepting the move that most improves
// the Eq. 4 objective, until no move helps or maxIters iterations
// (default 4 per layer) have run. Moves that break qualityCap, when it is
// positive, are skipped. It leaves the result in cur and returns its
// evaluation. A start that is not contiguous is left unchanged; every
// start bestStart makes is contiguous.
//
// Each iteration prices every move in place from an estimate (see
// estimate). A move whose estimated objective, less the margin, is not
// below the running best, or whose estimated Σ ω, less its margin, is
// over the cap, would be rejected on its exact sums too, and is
// skipped. Every other move is summed exactly (see score) and accepted
// or rejected on those sums alone, so the estimate only filters: the
// accepted moves are those of scoring every move exactly.
func (s *transferSearch) transfer(start *assignment, maxIters int, qualityCap float64) evaluation {
	if !start.valid(len(s.oc.devs)) {
		copy(s.cur.stageOf, start.stageOf)
		copy(s.cur.bitIdx, start.bitIdx)
		return evaluate(start, s.oc, s.ind, s.theta)
	}
	s.reset(start)
	cur := s.cur
	if maxIters <= 0 {
		maxIters = 4 * s.ind.Layers()
	}
	capped, capLimit := qualityCap > 0, qualityCap+1e-9
	curObj := s.evaluation().Objective
	for iter := 0; iter < maxIters; iter++ {
		bestLayer, bestTo, bestBit := -1, 0, 0
		bestObj := curObj
		limit := bestObj - 1e-12
		consider := func(layer, to, bit int) {
			if !s.movable(layer, cur.stageOf[layer], to) {
				return
			}
			est, q, feasible := s.estimate(layer, to, bit)
			if !feasible || capped && lowerBound(q, s.qMargin) > capLimit || lowerBound(est, s.margin) >= limit {
				return
			}
			obj, q, _ := s.score(layer, to, bit)
			if capped && q > capLimit {
				return
			}
			if obj < limit {
				bestLayer, bestTo, bestBit, bestObj = layer, to, bit, obj
				limit = bestObj - 1e-12
			}
		}

		// Move family 1: single-layer bitwidth conversion (any layer,
		// any alternative bitwidth) — covers the (b_st, b_pi, ·) rules.
		for i := range cur.bitIdx {
			for bi := 0; bi < s.nb; bi++ {
				if bi != cur.bitIdx[i] {
					consider(i, cur.stageOf[i], bi)
				}
			}
		}
		// Move family 2: boundary-layer repartition between adjacent
		// stages, optionally converting the moved layer's bitwidth so it
		// fits or runs faster on the receiving device (num_s rule).
		for i := 1; i < len(cur.stageOf); i++ {
			back, fwd := cur.stageOf[i-1], cur.stageOf[i]
			if back == fwd {
				continue
			}
			// Boundary between i-1 (stage back) and i (stage fwd):
			// pull layer i back, or push layer i-1 forward.
			for bi := 0; bi < s.nb; bi++ {
				consider(i, back, bi)
			}
			for bi := 0; bi < s.nb; bi++ {
				consider(i-1, fwd, bi)
			}
		}
		if bestLayer < 0 {
			break
		}
		s.apply(bestLayer, bestTo, bestBit)
		curObj = bestObj
	}
	return s.evaluation()
}

// lowerBound is est − margin, which no value within margin of est is
// below, or NaN, which fails every comparison, when est or margin is
// not finite: a non-finite estimate or margin never skips a move.
func lowerBound(est, margin float64) float64 {
	if math.IsInf(est, 0) || math.IsInf(margin, 0) {
		return math.NaN()
	}
	return est - margin
}

// reset loads start into cur and rebuilds every sum.
func (s *transferSearch) reset(start *assignment) {
	copy(s.cur.stageOf, start.stageOf)
	copy(s.cur.bitIdx, start.bitIdx)
	s.rebuild()
}

// rebuild recomputes every sum and prefix from cur, in O(L), and
// forgets the priced bit changes.
func (s *transferSearch) rebuild() {
	a, nb := s.cur, s.nb
	clear(s.pre)
	clear(s.dec)
	clear(s.mem)
	clear(s.bitMoves)
	for i, j := range a.stageOf {
		bi := a.bitIdx[i]
		s.lp[i], s.ld[i], s.omega[i] = s.pk[j*nb+bi], s.dk[j*nb+bi], s.ind.Omega[i][bi]
		s.prePfx[i], s.decPfx[i] = s.pre[j], s.dec[j]
		s.pre[j] += s.lp[i]
		s.dec[j] += s.ld[i]
		s.mem[j] += s.oc.memLayer[bi]
		s.qPre[i+1] = s.qPre[i] + s.omega[i]
	}
	for i := len(a.stageOf) - 1; i >= 0; i-- {
		s.first[a.stageOf[i]] = i
	}
	s.first[len(s.oc.devs)] = len(a.stageOf)
}

// evaluation is evaluate(cur) from the kept sums.
func (s *transferSearch) evaluation() evaluation {
	return objective(s.oc, s.pre, s.dec, s.mem, s.qPre[len(s.cur.bitIdx)], s.theta)
}

// apply moves layer to stage `to` at bit index bit for good.
func (s *transferSearch) apply(layer, to, bit int) {
	s.cur.stageOf[layer], s.cur.bitIdx[layer] = to, bit
	s.rebuild()
}

// estimate returns an estimate of the Eq. 4 objective and Σ ω of cur
// with layer moved to stage `to` at bit index bit, within s.margin and
// s.qMargin of the exact ones (see configure), and the move's memory
// feasibility, which is exact. The move must be movable. The moved
// layer's old term is subtracted from its stage's sums and from Σ ω and
// its new term added; a bit change's latency then depends only on
// (stage, old bit, new bit), so eq4 prices it once per rebuild.
func (s *transferSearch) estimate(layer, to, bit int) (obj, quality float64, feasible bool) {
	from, old := s.cur.stageOf[layer], s.cur.bitIdx[layer]
	var latency float64
	if to == from {
		m := &s.bitMoves[(from*s.nb+old)*s.nb+bit]
		if !m.priced {
			m.latency, m.feasible = s.shifted(from, old, to, bit)
			m.priced = true
		}
		latency, feasible = m.latency, m.feasible
	} else {
		latency, feasible = s.shifted(from, old, to, bit)
	}
	quality = s.qPre[len(s.cur.bitIdx)] - s.omega[layer] + s.ind.Omega[layer][bit]
	return latency + s.theta*quality, quality, feasible
}

// shifted is eq4's latency and feasibility with one layer's terms at
// (from, old) subtracted from stage from's sums and its terms at
// (to, bit) added to stage to's.
func (s *transferSearch) shifted(from, old, to, bit int) (latency float64, feasible bool) {
	nb := s.nb
	preFrom, decFrom, memFrom := s.pre[from], s.dec[from], s.mem[from]
	preTo, decTo, memTo := s.pre[to], s.dec[to], s.mem[to]
	s.pre[from] -= s.pk[from*nb+old]
	s.dec[from] -= s.dk[from*nb+old]
	s.mem[from] -= s.oc.memLayer[old]
	s.pre[to] += s.pk[to*nb+bit]
	s.dec[to] += s.dk[to*nb+bit]
	s.mem[to] += s.oc.memLayer[bit]
	_, latency, _, _, feasible = eq4(s.oc, s.pre, s.dec, s.mem, 0, 0)
	s.pre[to], s.dec[to], s.mem[to] = preTo, decTo, memTo
	s.pre[from], s.dec[from], s.mem[from] = preFrom, decFrom, memFrom
	return latency, feasible
}

// score returns the Eq. 4 objective, Σ ω and memory feasibility of cur
// with layer moved to stage `to` at bit index bit, every float summed as
// evaluate sums it on the moved assignment. The move must be movable;
// cur and the sums are left as they were.
//
// Only the stages the move touches change, and each is formed in
// ascending layer order: a bit change takes the layer's stage prefix,
// adds the new term and then the stage's later layers; a layer joining
// a stage's end is added to that stage's sum; a stage losing its last
// layer keeps that layer's prefix; and a stage losing or gaining its
// first layer is re-summed in full. Σ ω is the prefix before the layer,
// the new ω, then every later layer's.
func (s *transferSearch) score(layer, to, bit int) (obj, quality float64, feasible bool) {
	a, nb := s.cur, s.nb
	from, old := a.stageOf[layer], a.bitIdx[layer]
	preFrom, decFrom, memFrom := s.pre[from], s.dec[from], s.mem[from]
	preTo, decTo, memTo := s.pre[to], s.dec[to], s.mem[to]
	s.mem[from] -= s.oc.memLayer[old]
	s.mem[to] += s.oc.memLayer[bit]
	switch to {
	case from:
		s.pre[from], s.dec[from] = s.sumStage(from, s.prePfx[layer]+s.pk[from*nb+bit], s.decPfx[layer]+s.dk[from*nb+bit], layer+1)
	case from + 1:
		// The layer leaves the end of stage from and leads stage to,
		// whose sum starts from zero as stageSums' does.
		s.pre[from], s.dec[from] = s.prePfx[layer], s.decPfx[layer]
		s.pre[to], s.dec[to] = s.sumStage(to, 0+s.pk[to*nb+bit], 0+s.dk[to*nb+bit], s.first[to])
	default: // from - 1
		s.pre[to], s.dec[to] = preTo+s.pk[to*nb+bit], decTo+s.dk[to*nb+bit]
		s.pre[from], s.dec[from] = s.sumStage(from, 0, 0, layer+1)
	}
	quality = s.qPre[layer] + s.ind.Omega[layer][bit]
	for _, w := range s.omega[layer+1:] {
		quality += w
	}
	obj, _, _, _, feasible = eq4(s.oc, s.pre, s.dec, s.mem, quality, s.theta)
	s.pre[to], s.dec[to], s.mem[to] = preTo, decTo, memTo
	s.pre[from], s.dec[from], s.mem[from] = preFrom, decFrom, memFrom
	return obj, quality, feasible
}

// sumStage adds lp and ld of stage j's layers from layer lo to the
// stage's end to pre and dec, in ascending layer order.
func (s *transferSearch) sumStage(j int, pre, dec float64, lo int) (float64, float64) {
	for i := lo; i < s.first[j+1]; i++ {
		pre += s.lp[i]
		dec += s.ld[i]
	}
	return pre, dec
}

// movable is the local validity check: a layer may stay on its stage,
// or move to an adjacent stage when it sits on that boundary and its
// stage keeps at least one layer.
func (s *transferSearch) movable(layer, from, to int) bool {
	if to < 0 || to >= len(s.oc.devs) {
		return false
	}
	lo, hi := s.first[from], s.first[from+1]
	switch to {
	case from:
		return true
	case from - 1:
		return layer == lo && hi-lo > 1
	case from + 1:
		return layer == hi-1 && hi-lo > 1
	}
	return false
}
