package core

// bitwidthTransfer implements the §IV-C heuristic: starting from the
// adabits solution, it repeatedly applies transformation rules
// C = (b_st, b_pi, num_s) — bitwidth conversions and boundary-layer
// repartitions between straggler and pioneer stages — accepting the move
// that most improves the Eq. 4 objective, until no move helps or the
// iteration cap is reached.
//
// Each move is tried in place on the current assignment and scored as a
// delta (see transferSearch), then reverted; only the best move of an
// iteration is applied. Every start point is contiguous by construction;
// a start that is not is returned unchanged.
func bitwidthTransfer(start *assignment, oc *orderingCosts, ind *Indicator, theta float64, maxIters int, qualityCap float64) *assignment {
	if !start.valid(len(oc.devs)) {
		return start.clone()
	}
	if maxIters <= 0 {
		maxIters = 4 * ind.Layers()
	}
	s := newTransferSearch(start, oc, ind, theta)
	cur := s.cur
	curEv := s.evaluation()
	for iter := 0; iter < maxIters; iter++ {
		bestLayer, bestTo, bestBit := -1, 0, 0
		bestEv := curEv
		consider := func(layer, to, bit int) {
			ev, ok := s.score(layer, to, bit)
			if !ok || !ev.Feasible {
				return
			}
			if qualityCap > 0 && ev.Quality > qualityCap+1e-9 {
				return
			}
			if ev.Objective < bestEv.Objective-1e-12 {
				bestLayer, bestTo, bestBit, bestEv = layer, to, bit, ev
			}
		}

		// Move family 1: single-layer bitwidth conversion (any layer,
		// any alternative bitwidth) — covers the (b_st, b_pi, ·) rules.
		for i := range cur.bitIdx {
			for bi := range oc.bits {
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
			for bi := range oc.bits {
				consider(i, back, bi)
			}
			for bi := range oc.bits {
				consider(i-1, fwd, bi)
			}
		}
		if bestLayer < 0 {
			break
		}
		s.apply(bestLayer, bestTo, bestBit)
		curEv = bestEv
	}
	return cur
}

// transferSearch is the incremental state of bitwidthTransfer's current
// assignment, which must be valid. It keeps cur's per-stage prefill,
// decode and memory sums, the first layer of each stage and the prefix
// sums of Σ ω, so a move is scored by re-summing only the one or two
// stages it touches (in ascending layer order, as stageSums does) and
// Σ ω from the moved layer on. Every float is therefore bit-identical
// to evaluate on the moved assignment.
type transferSearch struct {
	oc    *orderingCosts
	ind   *Indicator
	theta float64

	// cur is the current assignment; score mutates and restores it.
	cur *assignment
	// first[j] is the first layer of stage j; first[nDev] is the layer
	// count.
	first []int
	// pre, dec, mem are cur's per-stage sums; score overwrites the
	// touched stages and puts them back.
	pre, dec []float64
	mem      []int64
	// qPre[i] is Σ ω over layers < i, summed in layer order.
	qPre []float64
}

func newTransferSearch(start *assignment, oc *orderingCosts, ind *Indicator, theta float64) *transferSearch {
	nDev := len(oc.devs)
	s := &transferSearch{
		oc: oc, ind: ind, theta: theta,
		cur:   start.clone(),
		first: make([]int, nDev+1),
		pre:   make([]float64, nDev), dec: make([]float64, nDev), mem: make([]int64, nDev),
		qPre: make([]float64, len(start.bitIdx)+1),
	}
	s.rebuild()
	return s
}

// rebuild recomputes every sum from cur.
func (s *transferSearch) rebuild() {
	a := s.cur
	clear(s.pre)
	clear(s.dec)
	clear(s.mem)
	stageSums(a, s.oc, s.ind, s.pre, s.dec, s.mem)
	for i, bi := range a.bitIdx {
		s.qPre[i+1] = s.qPre[i] + s.ind.Omega[i][bi]
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

// score evaluates cur with layer moved to stage `to` at bit index bit,
// leaving cur and the sums as they were. ok is cur.valid of the moved
// assignment; ev is meaningful only when ok.
func (s *transferSearch) score(layer, to, bit int) (ev evaluation, ok bool) {
	a := s.cur
	from, oldBit := a.stageOf[layer], a.bitIdx[layer]
	if !s.movable(layer, from, to) {
		return ev, false
	}
	a.stageOf[layer], a.bitIdx[layer] = to, bit
	preFrom, decFrom, memFrom := s.pre[from], s.dec[from], s.mem[from]
	preTo, decTo, memTo := s.pre[to], s.dec[to], s.mem[to]
	s.resum(from, layer)
	if to != from {
		s.resum(to, layer)
	}
	q := s.qPre[layer] + s.ind.Omega[layer][bit]
	for i := layer + 1; i < len(a.bitIdx); i++ {
		q += s.ind.Omega[i][a.bitIdx[i]]
	}
	ev = objective(s.oc, s.pre, s.dec, s.mem, q, s.theta)
	s.pre[to], s.dec[to], s.mem[to] = preTo, decTo, memTo
	s.pre[from], s.dec[from], s.mem[from] = preFrom, decFrom, memFrom
	a.stageOf[layer], a.bitIdx[layer] = from, oldBit
	return ev, true
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

// resum re-sums stage j of the moved cur into pre, dec, mem, in
// ascending layer order. layer is the moved layer, which joined, stayed
// on or left stage j at one of its ends.
func (s *transferSearch) resum(j, layer int) {
	a, oc := s.cur, s.oc
	lo, hi := s.first[j], s.first[j+1]
	switch {
	case a.stageOf[layer] != j && layer == lo:
		lo++
	case a.stageOf[layer] != j:
		hi--
	case layer < lo:
		lo = layer
	case layer >= hi:
		hi = layer + 1
	}
	var pre, dec float64
	var mem int64
	for i := lo; i < hi; i++ {
		bi := a.bitIdx[i]
		pre += oc.prefillLayer(j, bi)
		dec += oc.decodeLayer(j, bi)
		mem += oc.memLayer[bi]
	}
	s.pre[j], s.dec[j], s.mem[j] = pre, dec, mem
}
