package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/workload"
)

// newTransferSearch returns a search configured for oc; reset loads a
// start assignment into it.
func newTransferSearch(oc *orderingCosts, ind *Indicator, theta float64) *transferSearch {
	s := new(transferSearch)
	s.configure(oc, ind, theta)
	return s
}

// bitwidthTransfer runs one bitwidth-transfer search (transferSearch.transfer)
// and returns its result.
func bitwidthTransfer(start *assignment, oc *orderingCosts, ind *Indicator, theta float64, maxIters int, qualityCap float64) *assignment {
	s := newTransferSearch(oc, ind, theta)
	s.transfer(start, maxIters, qualityCap)
	return s.cur
}

// bitwidthTransferRef is the clone-per-move bitwidth transfer that
// bitwidthTransfer replaced: every candidate is a full copy of the
// assignment scored by evaluate. It is kept as the reference the
// in-place, delta-scored search must reproduce exactly.
func bitwidthTransferRef(start *assignment, oc *orderingCosts, ind *Indicator, theta float64, maxIters int, qualityCap float64) *assignment {
	if maxIters <= 0 {
		maxIters = 4 * ind.Layers()
	}
	cur := start.clone()
	curEv := evaluate(cur, oc, ind, theta)
	N := len(oc.devs)
	for iter := 0; iter < maxIters; iter++ {
		var best *assignment
		bestEv := curEv
		consider := func(cand *assignment) {
			if !cand.valid(N) {
				return
			}
			ev := evaluate(cand, oc, ind, theta)
			if !ev.Feasible {
				return
			}
			if qualityCap > 0 && ev.Quality > qualityCap+1e-9 {
				return
			}
			if ev.Objective < bestEv.Objective-1e-12 {
				best, bestEv = cand, ev
			}
		}

		// Move family 1: single-layer bitwidth conversion (any layer,
		// any alternative bitwidth) — covers the (b_st, b_pi, ·) rules.
		for i := range cur.bitIdx {
			for bi := range oc.bits {
				if bi == cur.bitIdx[i] {
					continue
				}
				cand := cur.clone()
				cand.bitIdx[i] = bi
				consider(cand)
			}
		}
		// Move family 2: boundary-layer repartition between adjacent
		// stages, optionally converting the moved layer's bitwidth so it
		// fits or runs faster on the receiving device (num_s rule).
		for i := 1; i < len(cur.stageOf); i++ {
			if cur.stageOf[i] == cur.stageOf[i-1] {
				continue
			}
			// Boundary between i-1 (stage j) and i (stage j+1):
			// pull layer i back to stage j, or push layer i-1 forward.
			for _, move := range [][2]int{{i, cur.stageOf[i-1]}, {i - 1, cur.stageOf[i]}} {
				layer, to := move[0], move[1]
				for bi := range oc.bits {
					cand := cur.clone()
					cand.stageOf[layer] = to
					cand.bitIdx[layer] = bi
					consider(cand)
				}
			}
		}
		if best == nil {
			break
		}
		cur, curEv = best, bestEv
	}
	return cur
}

// TestBitwidthTransferMatchesReference runs the delta-scored search and
// the clone-per-move reference from every start point bestStart uses and
// requires identical assignments.
func TestBitwidthTransferMatchesReference(t *testing.T) {
	spec := model.OPT13B
	for _, preset := range []int{2, 3, 5, 9} {
		a := mustAssigner(t, spec, cluster.MustPreset(preset), Options{Method: MethodHeuristic, OrderingLimit: 2})
		configs := a.searchConfigs(smallBatch.Size)
		// A spread of configurations keeps the slow reference affordable.
		stride := len(configs)/8 + 1
		compared := 0
		for c := 0; c < len(configs); c += stride {
			oc := a.buildConfigCosts(configs[c], smallBatch)
			type namedStart struct {
				name string
				as   *assignment
			}
			var starts []namedStart
			add := func(name string, as *assignment, err error) {
				if err == nil {
					starts = append(starts, namedStart{name, as})
				}
			}
			ada, err := adabits(oc, a.ind)
			add("adabits", ada, err)
			h, err := het(oc, a.ind)
			add("het", h, err)
			low, err := hetAtBit(oc, a.ind, oc.bits[lowestBitIdx(oc)])
			add("hetAtBit", low, err)
			uni, err := uniform(oc, a.ind)
			add("uniform", uni, err)
			// The §VI-C floor: at least Uniform's quality (the best start's
			// when Uniform does not fit).
			capQ := math.Inf(1)
			for _, s := range starts {
				if s.as == uni || uni == nil {
					capQ = math.Min(capQ, evaluate(s.as, oc, a.ind, 0).Quality)
				}
			}
			capQ = math.Max(capQ, 1e-9)
			for _, start := range starts {
				for _, theta := range []float64{0, 0.1, 1, 10} {
					for _, qcap := range []float64{0, capQ} {
						want := bitwidthTransferRef(start.as, oc, a.ind, theta, 0, qcap)
						got := bitwidthTransfer(start.as, oc, a.ind, theta, 0, qcap)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("preset %d %s from %s θ=%v cap=%v:\ngot  %v\nwant %v",
								preset, configs[c].key(), start.name, theta, qcap, got, want)
						}
						compared++
					}
				}
			}
		}
		if compared == 0 {
			t.Fatalf("preset %d: no start point fits any configuration", preset)
		}
	}
}

// deltaInstance builds the tiny planning instance a FuzzDeltaScore input
// selects: a preset's devices in listed order, one of two bit sets, one
// of three batch shapes and 2-12 layers. From instance 30 up the
// instance is memory-tight: every device's budget is ⌈L/nDev⌉ layers at
// the mean footprint of the lowest and highest bitwidth, which only
// some bit mixes and partitions fit.
func deltaInstance(instance, layers uint8) (*orderingCosts, *Indicator) {
	presets := []int{2, 3, 4, 5, 9}
	bitSets := [][]int{{4, 16}, {3, 4, 8, 16}}
	batches := []workload.Batch{
		{Size: 8, ChunkLen: 256, Chunks: 1, GenTokens: 8},
		{Size: 32, ChunkLen: 512, Chunks: 2, GenTokens: 64},
		{Size: 256, ChunkLen: 1024, Chunks: 1, GenTokens: 128},
	}
	clu := cluster.MustPreset(presets[int(instance)%len(presets)])
	devs := clu.Devices()
	bits := bitSets[int(instance)/len(presets)%len(bitSets)]
	batch := batches[int(instance)/(len(presets)*len(bitSets))%len(batches)]
	spec := *tinySpec
	spec.Layers = max(len(devs), 2+int(layers)%11)
	ind := ProfileIndicator(&spec, bits, quant.Deterministic)
	oc := buildCosts(&spec, clu, devs, bits, batch, batch.Size/4, batch.Size/4, 16, nil)
	if instance >= 30 {
		perLayer := (oc.memLayer[0] + oc.memLayer[len(bits)-1]) / 2
		for j := range oc.memBudget {
			oc.memBudget[j] = perLayer * int64(ceilDiv(spec.Layers, len(devs)))
		}
	}
	return oc, ind
}

// sameEvaluation compares two evaluations bit for bit.
func sameEvaluation(a, b evaluation) bool {
	bits := math.Float64bits
	return a.Feasible == b.Feasible && bits(a.Quality) == bits(b.Quality) &&
		bits(a.Objective) == bits(b.Objective) && bits(a.Latency) == bits(b.Latency) &&
		bits(a.PreMax) == bits(b.PreMax) && bits(a.DecMax) == bits(b.DecMax)
}

// fuzzAssignment decodes a fuzz input into a tiny planning instance
// (deltaInstance), a sanitized θ, and a valid contiguous assignment on it
// (assign: stage sizes, then one bit index per layer).
func fuzzAssignment(t *testing.T, instance, layers uint8, theta float64, assign []byte) (*orderingCosts, *Indicator, float64, *assignment) {
	t.Helper()
	if theta = math.Abs(theta); math.IsNaN(theta) || theta > 1e6 {
		theta = 1
	}
	oc, ind := deltaInstance(instance, layers)
	nDev, nLayers, nBits := len(oc.devs), ind.Layers(), len(oc.bits)
	at := func(k int) int {
		if k < len(assign) {
			return int(assign[k])
		}
		return 0
	}
	as := &assignment{stageOf: make([]int, nLayers), bitIdx: make([]int, nLayers)}
	spare, i := nLayers-nDev, 0
	for j := 0; j < nDev; j++ {
		size := 1 + at(j)%(spare+1)
		if j == nDev-1 {
			size = nLayers - i
		}
		spare -= size - 1
		for ; size > 0; size-- {
			as.stageOf[i], as.bitIdx[i] = j, at(nDev+i)%nBits
			i++
		}
	}
	if !as.valid(nDev) {
		t.Fatalf("generated assignment %v is not contiguous", as)
	}
	return oc, ind, theta, as
}

// checkSearchSums requires every kept sum of s to equal what stageSums
// gives on cur, bit for bit: the per-stage sums, each stage's first
// layer, each layer's prefix of its stage's sums and the prefix of Σ ω
// (stageSums over the layers before it).
func checkSearchSums(t *testing.T, s *transferSearch, when string) {
	t.Helper()
	bits := math.Float64bits
	a, nDev := s.cur, len(s.oc.devs)
	pre, dec, mem := make([]float64, nDev), make([]float64, nDev), make([]int64, nDev)
	stageSums(a, s.oc, s.ind, pre, dec, mem)
	for j := range pre {
		if bits(s.pre[j]) != bits(pre[j]) || bits(s.dec[j]) != bits(dec[j]) || s.mem[j] != mem[j] {
			t.Fatalf("after %s on %v: stage %d sums (%v, %v, %d), stageSums (%v, %v, %d)",
				when, a, j, s.pre[j], s.dec[j], s.mem[j], pre[j], dec[j], mem[j])
		}
		if s.first[j] != slices.Index(a.stageOf, j) {
			t.Fatalf("after %s on %v: first %v", when, a, s.first)
		}
	}
	if s.first[nDev] != len(a.stageOf) {
		t.Fatalf("after %s on %v: first %v", when, a, s.first)
	}
	for i, j := range a.stageOf {
		clear(pre)
		clear(dec)
		q := stageSums(&assignment{stageOf: a.stageOf[:i], bitIdx: a.bitIdx[:i]}, s.oc, s.ind, pre, dec, mem)
		if bits(s.prePfx[i]) != bits(pre[j]) || bits(s.decPfx[i]) != bits(dec[j]) || bits(s.qPre[i]) != bits(q) {
			t.Fatalf("after %s on %v: layer %d prefixes (%v, %v, Σω %v), stageSums (%v, %v, Σω %v)",
				when, a, i, s.prePfx[i], s.decPfx[i], s.qPre[i], pre[j], dec[j], q)
		}
	}
	if got, want := s.qPre[len(a.stageOf)], stageSums(a, s.oc, s.ind, pre, dec, mem); bits(got) != bits(want) {
		t.Fatalf("after %s on %v: Σω %v, stageSums %v", when, a, got, want)
	}
}

// checkMove requires that the move of layer to stage `to` at bit index
// bit is movable exactly when the moved assignment is valid and, when
// it is, that score equals evaluate on the moved assignment bit for bit
// and that the estimate has its feasibility and lies within the margins
// of its objective and Σ ω. Neither may change cur or the kept sums, and
// pricing again must give the same bits.
func checkMove(t *testing.T, s *transferSearch, layer, to, bit int) {
	t.Helper()
	a := s.cur.clone()
	before := s.evaluation()
	moved := a.clone()
	moved.stageOf[layer], moved.bitIdx[layer] = to, bit
	ok := s.movable(layer, a.stageOf[layer], to)
	if want := moved.valid(len(s.oc.devs)); ok != want {
		t.Fatalf("move (%d→%d, bit %d) on %v: movable %v, full check %v", layer, to, bit, a, ok, want)
	}
	if !ok {
		return
	}
	bits := math.Float64bits
	want := evaluate(moved, s.oc, s.ind, s.theta)
	est, estQ, estFeasible := s.estimate(layer, to, bit)
	obj, q, feasible := s.score(layer, to, bit)
	if feasible != want.Feasible || bits(obj) != bits(want.Objective) || bits(q) != bits(want.Quality) {
		t.Fatalf("move (%d→%d, bit %d) on %v:\nscore    objective %v feasible %v Σω %v\nevaluate %+v",
			layer, to, bit, a, obj, feasible, q, want)
	}
	if estFeasible != want.Feasible || !(math.Abs(est-want.Objective) <= s.margin) || !(math.Abs(estQ-want.Quality) <= s.qMargin) {
		t.Fatalf("move (%d→%d, bit %d) on %v: estimate objective %v (margin %v) Σω %v (margin %v) feasible %v, evaluate %+v",
			layer, to, bit, a, est, s.margin, estQ, s.qMargin, estFeasible, want)
	}
	again, againQ, againFeasible := s.estimate(layer, to, bit)
	if bits(again) != bits(est) || bits(againQ) != bits(estQ) || againFeasible != estFeasible {
		t.Fatalf("move (%d→%d, bit %d) on %v: estimated (%v, %v, %v), then (%v, %v, %v)",
			layer, to, bit, a, est, estQ, estFeasible, again, againQ, againFeasible)
	}
	if again, againQ, againFeasible := s.score(layer, to, bit); bits(again) != bits(obj) || bits(againQ) != bits(q) || againFeasible != feasible {
		t.Fatalf("move (%d→%d, bit %d) on %v: scored (%v, %v, %v), then (%v, %v, %v)",
			layer, to, bit, a, obj, q, feasible, again, againQ, againFeasible)
	}
	if !reflect.DeepEqual(s.cur, a) || !sameEvaluation(s.evaluation(), before) {
		t.Fatalf("pricing move (%d→%d, bit %d) changed cur or the kept sums of %v", layer, to, bit, a)
	}
}

// checkEveryMove runs checkMove on every move off cur: each layer to its
// own stage and both neighbours (and one past either end), at every bit.
func checkEveryMove(t *testing.T, s *transferSearch) {
	t.Helper()
	for layer, from := range s.cur.stageOf {
		for to := from - 1; to <= from+1; to++ {
			for bit := 0; bit < s.nb; bit++ {
				checkMove(t, s, layer, to, bit)
			}
		}
	}
}

// FuzzDeltaScore checks the bitwidth-transfer search's two prices of a
// move against evaluate on the moved assignment: the exact score bit for
// bit, the estimate within its margins (checkMove, for the fuzzed move
// and every other one), and the kept sums after reset and after apply
// (checkSearchSums). The inputs pick a tiny instance and a valid start
// assignment (fuzzAssignment), and a move (layer, to, bit), including
// moves off a boundary, out of range or emptying a stage.
func FuzzDeltaScore(f *testing.F) {
	// θ at both ends of the range fuzzAssignment keeps.
	f.Add(uint8(2), uint8(6), 0.0, []byte{2, 0, 3, 0, 1, 0, 1, 0, 1}, uint8(4), uint8(2), uint8(1))
	f.Add(uint8(7), uint8(8), 1e6, []byte{3, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}, uint8(3), uint8(1), uint8(0))
	// Memory-tight instances (see deltaInstance), where many moves are
	// infeasible.
	f.Add(uint8(51), uint8(10), 1.0, []byte{5, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1}, uint8(5), uint8(1), uint8(1))
	f.Add(uint8(52), uint8(10), 0.1, []byte{2, 2, 2, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0}, uint8(5), uint8(2), uint8(1))
	// One-layer stages: as many layers as devices.
	f.Add(uint8(4), uint8(2), 1.0, []byte{0, 0, 0, 0, 0, 1, 0, 1, 0}, uint8(1), uint8(2), uint8(1))
	f.Add(uint8(9), uint8(0), 10.0, []byte{0, 0, 0, 0, 1, 0, 1}, uint8(2), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, instance, layers uint8, theta float64, assign []byte, layer, to, bit uint8) {
		oc, ind, theta, start := fuzzAssignment(t, instance, layers, theta, assign)
		nDev, nLayers, nBits := len(oc.devs), ind.Layers(), len(oc.bits)
		l, b := int(layer)%nLayers, int(bit)%nBits
		mv := int(to)%(nDev+2) - 1 // one past either end is out of range

		s := newTransferSearch(oc, ind, theta)
		s.reset(start)
		checkSearchSums(t, s, "reset")
		if !sameEvaluation(s.evaluation(), evaluate(start, oc, ind, theta)) {
			t.Fatalf("kept sums of %v differ from evaluate", start)
		}
		checkMove(t, s, l, mv, b)
		checkEveryMove(t, s)
		applied := start.clone()
		applied.stageOf[l], applied.bitIdx[l] = mv, b
		if !applied.valid(nDev) {
			return
		}
		s.apply(l, mv, b)
		checkSearchSums(t, s, "apply")
		if !reflect.DeepEqual(s.cur, applied) || !sameEvaluation(s.evaluation(), evaluate(applied, oc, ind, theta)) {
			t.Fatalf("applied move: cur %v eval %+v, want %v %+v", s.cur, s.evaluation(), applied, evaluate(applied, oc, ind, theta))
		}
		checkEveryMove(t, s)
	})
}

// FuzzBitwidthTransfer runs the whole bitwidth-transfer search, not one
// move, against the clone-per-move reference: from a fuzzed start
// (fuzzAssignment) with a fuzzed θ, quality cap (absolute Σ ω; zero,
// negative or non-finite means none) and iteration cap (zero means the
// default), the two must return the same assignment.
func FuzzBitwidthTransfer(f *testing.F) {
	f.Add(uint8(0), uint8(0), 1.0, []byte{}, 0.0, uint8(0))
	f.Add(uint8(7), uint8(10), 0.1, []byte{3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2}, 0.0, uint8(3))
	f.Add(uint8(13), uint8(5), 0.0, []byte{1, 1, 1, 1, 0, 0, 0, 0, 0, 0}, 2.5, uint8(0))
	f.Add(uint8(24), uint8(9), 10.0, []byte{9, 0, 2, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0.5, uint8(1))
	f.Add(uint8(29), uint8(3), 100.0, []byte{0, 4, 0, 4, 3, 3, 3}, 6.0, uint8(0))
	f.Add(uint8(4), uint8(11), 1.0, []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 1.0, uint8(0))
	f.Fuzz(func(t *testing.T, instance, layers uint8, theta float64, assign []byte, qcap float64, iters uint8) {
		oc, ind, theta, start := fuzzAssignment(t, instance, layers, theta, assign)
		if math.IsNaN(qcap) || math.IsInf(qcap, 0) || qcap < 0 {
			qcap = 0
		}
		maxIters := int(iters) % 16
		want := bitwidthTransferRef(start, oc, ind, theta, maxIters, qcap)
		got := bitwidthTransfer(start, oc, ind, theta, maxIters, qcap)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("from %v θ=%v cap=%v iters=%d:\ngot  %v\nwant %v", start, theta, qcap, maxIters, got, want)
		}
	})
}

// TestBestStartMatchesReference runs bestStart, whose search is reset
// for every start point and reused across configurations of different
// stage counts, against a multi-start built from the clone-per-move
// reference and evaluate, and requires the same assignment and
// evaluation.
func TestBestStartMatchesReference(t *testing.T) {
	spec := model.OPT13B
	for _, preset := range []int{2, 3, 5, 9} {
		a := mustAssigner(t, spec, cluster.MustPreset(preset), Options{Method: MethodHeuristic, OrderingLimit: 2})
		configs := a.searchConfigs(smallBatch.Size)
		stride := len(configs)/6 + 1
		for c := 0; c < len(configs); c += stride {
			oc := a.buildConfigCosts(configs[c], smallBatch)
			starts := a.transferStarts(oc)
			capQ := 1e-9 // nothing fits: a cap every start breaks
			if uni, err := uniform(oc, a.ind); err == nil {
				capQ = evaluate(uni, oc, a.ind, 0).Quality
			}
			for _, theta := range []float64{0, 0.1, 1, 10} {
				for _, qcap := range []float64{0, capQ} {
					a.opts.QualityCap = qcap
					var want *assignment
					wantEv := evaluation{Objective: math.Inf(1)}
					for _, s := range starts {
						as := bitwidthTransferRef(s, oc, a.ind, theta, 0, qcap)
						if ev := evaluate(as, oc, a.ind, theta); a.admissible(ev) && ev.Objective < wantEv.Objective {
							want, wantEv = as, ev
						}
					}
					got, gotEv := a.bestStart(oc, theta)
					if !reflect.DeepEqual(got, want) || (want != nil && !sameEvaluation(gotEv, wantEv)) {
						t.Fatalf("preset %d %s θ=%v cap=%v:\ngot  %v %+v\nwant %v %+v",
							preset, configs[c].key(), theta, qcap, got, gotEv, want, wantEv)
					}
				}
			}
		}
	}
}

// TestMaxfMatchesMathMax pins maxf, the inlined fast path of the Eq. 4
// tail, to math.Max bit for bit on the cases its comparisons pass on.
func TestMaxfMatchesMathMax(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	for _, c := range []struct{ x, y float64 }{
		{1, 2}, {2, 1}, {3, 3}, {-1, -1},
		{0, negZero}, {negZero, 0}, {0, 0}, {negZero, negZero},
		{inf, 1}, {1, inf}, {-inf, 1}, {1, -inf}, {inf, inf}, {-inf, -inf}, {inf, -inf},
		{nan, 1}, {1, nan}, {nan, nan}, {nan, inf}, {-inf, nan}, {nan, negZero},
	} {
		if got, want := maxf(c.x, c.y), math.Max(c.x, c.y); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("maxf(%v, %v) = %v, math.Max %v", c.x, c.y, got, want)
		}
	}
}

// FuzzOptimisticBound checks that optimisticBound, which decides which
// configurations the search may skip, never exceeds the objective of a
// feasible assignment under the configuration.
func FuzzOptimisticBound(f *testing.F) {
	f.Add(uint8(0), uint8(0), 10.0, []byte{})
	f.Add(uint8(7), uint8(10), 1.0, []byte{3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2})
	f.Add(uint8(13), uint8(5), 0.0, []byte{1, 1, 1, 1, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(24), uint8(9), 100.0, []byte{9, 0, 2, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(29), uint8(3), 0.5, []byte{0, 4, 0, 4, 3, 3, 3})
	f.Fuzz(func(t *testing.T, instance, layers uint8, theta float64, assign []byte) {
		oc, ind, theta, as := fuzzAssignment(t, instance, layers, theta, assign)
		ev := evaluate(as, oc, ind, theta)
		if !ev.Feasible {
			return
		}
		if lb := optimisticBound(oc, ind, theta); lb > ev.Objective {
			t.Fatalf("bound %v exceeds the objective %v of feasible %v", lb, ev.Objective, as)
		}
	})
}
