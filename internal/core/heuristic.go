package core

// transferSearch is the incremental state of the bitwidth-transfer
// search on its current assignment cur. Besides cur's per-stage sums it
// keeps, for every layer, the prefix of its stage's sums before it, and
// per-iteration tables of the stage sums and Σ ω that each single-layer
// bit change would give; a move is then scored from table entries, a
// prefix or a re-sum of one stage (see score). Every sum is formed in
// ascending layer order, as stageSums forms it, so every float is
// bit-identical to evaluate on the moved assignment. Its buffers are
// reused by every reset and every configure.
type transferSearch struct {
	oc    *orderingCosts
	ind   *Indicator
	theta float64
	// nb is the number of candidate bitwidths.
	nb int
	// pk[j*nb+bi] and dk[j*nb+bi] are one layer's prefill (× κ) and
	// decode costs on stage j at bit index bi.
	pk, dk []float64

	// cur is the current assignment.
	cur *assignment
	// first[j] is the first layer of stage j; first[nDev] is the layer
	// count.
	first []int
	// pre, dec, mem are cur's per-stage sums; score overwrites the
	// touched stages and puts them back.
	pre, dec []float64
	mem      []int64
	// lp[i], ld[i] and omega[i] are layer i's prefill and decode cost
	// and ω at its current stage and bit.
	lp, ld, omega []float64
	// prePfx[i] and decPfx[i] are the sums of lp and ld over the layers
	// of layer i's stage before i; qPre[i] is Σ ω over layers < i.
	prePfx, decPfx, qPre []float64
	// bitPre[i*nb+b], bitDec[i*nb+b] and q[i*nb+b] are the prefill and
	// decode sums of layer i's stage and Σ ω of cur with layer i at bit
	// index b.
	bitPre, bitDec, q []float64
}

// configure points s at one configuration, reusing its buffers where
// they are large enough.
func (s *transferSearch) configure(oc *orderingCosts, ind *Indicator, theta float64) {
	nDev, nb, L := len(oc.devs), len(oc.bits), ind.Layers()
	s.oc, s.ind, s.theta, s.nb = oc, ind, theta, nb
	s.pk, s.dk = resize(s.pk, nDev*nb), resize(s.dk, nDev*nb)
	for j := 0; j < nDev; j++ {
		for bi := 0; bi < nb; bi++ {
			s.pk[j*nb+bi] = oc.prefillLayer(j, bi)
			s.dk[j*nb+bi] = oc.decodeLayer(j, bi)
		}
	}
	if s.cur == nil {
		s.cur = new(assignment)
	}
	s.cur.stageOf, s.cur.bitIdx = resize(s.cur.stageOf, L), resize(s.cur.bitIdx, L)
	s.first = resize(s.first, nDev+1)
	s.pre, s.dec, s.mem = resize(s.pre, nDev), resize(s.dec, nDev), resize(s.mem, nDev)
	s.lp, s.ld, s.omega = resize(s.lp, L), resize(s.ld, L), resize(s.omega, L)
	s.prePfx, s.decPfx, s.qPre = resize(s.prePfx, L), resize(s.decPfx, L), resize(s.qPre, L+1)
	s.bitPre, s.bitDec, s.q = resize(s.bitPre, L*nb), resize(s.bitDec, L*nb), resize(s.q, L*nb)
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
// Each iteration scores every move in place as a delta (see score) and
// applies only the best.
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
	curObj := s.evaluation().Objective
	for iter := 0; iter < maxIters; iter++ {
		bestLayer, bestTo, bestBit := -1, 0, 0
		bestObj := curObj
		consider := func(layer, to, bit int) {
			obj, feasible, ok := s.score(layer, to, bit)
			if !ok || !feasible {
				return
			}
			if qualityCap > 0 && s.q[layer*s.nb+bit] > qualityCap+1e-9 {
				return
			}
			if obj < bestObj-1e-12 {
				bestLayer, bestTo, bestBit, bestObj = layer, to, bit, obj
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

// reset loads start into cur and rebuilds every sum.
func (s *transferSearch) reset(start *assignment) {
	copy(s.cur.stageOf, start.stageOf)
	copy(s.cur.bitIdx, start.bitIdx)
	s.rebuild()
}

// rebuild recomputes every sum and table from cur.
func (s *transferSearch) rebuild() {
	a, nb := s.cur, s.nb
	clear(s.pre)
	clear(s.dec)
	clear(s.mem)
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
	for i, j := range a.stageOf {
		end := s.first[j+1]
		sumChains(s.bitPre[i*nb:(i+1)*nb], s.prePfx[i], s.pk[j*nb:(j+1)*nb], s.lp[i+1:end])
		sumChains(s.bitDec[i*nb:(i+1)*nb], s.decPfx[i], s.dk[j*nb:(j+1)*nb], s.ld[i+1:end])
		sumChains(s.q[i*nb:(i+1)*nb], s.qPre[i], s.ind.Omega[i], s.omega[i+1:])
	}
}

// sumChains sets out[b] to base + alt[b] followed by every tail entry,
// added one at a time in order, so each is the sum stageSums would form
// with one layer's term replaced by alt[b]. The alternatives add the same
// tail, so they run as four independent chains side by side (lanes past
// the last alternative repeat it and are not stored): the tail is then
// bound by add throughput rather than latency, and each chain still
// rounds in order.
func sumChains(out []float64, base float64, alt, tail []float64) {
	last := len(out) - 1
	for b := 0; b <= last; b += 4 {
		s0 := base + alt[b]
		s1 := base + alt[min(b+1, last)]
		s2 := base + alt[min(b+2, last)]
		s3 := base + alt[min(b+3, last)]
		for _, t := range tail {
			s0 += t
			s1 += t
			s2 += t
			s3 += t
		}
		out[b] = s0
		if b+1 <= last {
			out[b+1] = s1
		}
		if b+2 <= last {
			out[b+2] = s2
		}
		if b+3 <= last {
			out[b+3] = s3
		}
	}
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

// score returns the Eq. 4 objective and memory feasibility of cur with
// layer moved to stage `to` at bit index bit; its Σ ω is
// q[layer*nb+bit]. cur and the sums are left as they were. ok is
// cur.valid of the moved assignment; obj and feasible are meaningful
// only when ok.
//
// Only the stages the move touches change, and each is formed in
// ascending layer order: a bit change reads bitPre and bitDec; a layer
// joining a stage's end is added to that stage's sum; a stage losing its
// last layer keeps that layer's prefix; and a stage losing or gaining
// its first layer is re-summed in full.
func (s *transferSearch) score(layer, to, bit int) (obj float64, feasible, ok bool) {
	a, nb := s.cur, s.nb
	from, old := a.stageOf[layer], a.bitIdx[layer]
	if !s.movable(layer, from, to) {
		return 0, false, false
	}
	preFrom, decFrom, memFrom := s.pre[from], s.dec[from], s.mem[from]
	preTo, decTo, memTo := s.pre[to], s.dec[to], s.mem[to]
	s.mem[from] -= s.oc.memLayer[old]
	s.mem[to] += s.oc.memLayer[bit]
	switch to {
	case from:
		s.pre[from], s.dec[from] = s.bitPre[layer*nb+bit], s.bitDec[layer*nb+bit]
	case from + 1:
		// The layer leaves the end of stage from and leads stage to,
		// whose sum starts from zero as stageSums' does.
		s.pre[from], s.dec[from] = s.prePfx[layer], s.decPfx[layer]
		s.pre[to], s.dec[to] = s.sumStage(to, 0+s.pk[to*nb+bit], 0+s.dk[to*nb+bit], s.first[to])
	default: // from - 1
		s.pre[to], s.dec[to] = preTo+s.pk[to*nb+bit], decTo+s.dk[to*nb+bit]
		s.pre[from], s.dec[from] = s.sumStage(from, 0, 0, layer+1)
	}
	obj, _, _, _, feasible = eq4(s.oc, s.pre, s.dec, s.mem, s.q[layer*nb+bit], s.theta)
	s.pre[to], s.dec[to], s.mem[to] = preTo, decTo, memTo
	s.pre[from], s.dec[from], s.mem[from] = preFrom, decFrom, memFrom
	return obj, feasible, true
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
