package core

import (
	"fmt"
	"slices"
)

// startBuffers holds what the start builders (adabits, uniform, het,
// hetAtBit) write: the assignment they return and their scratch. A
// built assignment is as, valid until the next build on the same
// buffers; the bitwidth-transfer search owns one set and builds every
// start point into it.
type startBuffers struct {
	as      assignment
	counts  []int
	memUse  []int64
	weights []float64
	// order is the candidate bitwidths, largest first.
	order []int
	// nextBit[bi] is the bit index adabits raises bit index bi to, or
	// -1 when it raises none.
	nextBit []int
	// up[i], extra[i] and gain[i] are adabits' upgrade of layer i: the
	// bit index it raises the layer to (-1 for none), the extra bytes
	// and the ω reduction per extra byte.
	up    []int
	extra []int64
	gain  []float64
}

// fill lays out b.as: counts[j] consecutive layers on stage j, all at
// bit index bi.
func (b *startBuffers) fill(counts []int, bi int) *assignment {
	layers := 0
	for _, c := range counts {
		layers += c
	}
	a := &b.as
	a.stageOf, a.bitIdx = resize(a.stageOf, layers), resize(a.bitIdx, layers)
	li := 0
	for j, c := range counts {
		for k := 0; k < c; k++ {
			a.stageOf[li], a.bitIdx[li] = j, bi
			li++
		}
	}
	return a
}

// adabits builds the "pure adaptive quantization" solution of §IV-C and
// Fig. 12: layers are partitioned by memory capacity alone (no latency
// objective) and bitwidths are then raised greedily wherever memory
// allows, prioritizing the layers whose indicated quality gain per byte
// is largest. It is both a baseline and the bitwidth-transfer heuristic's
// starting point.
func (b *startBuffers) adabits(oc *orderingCosts, ind *Indicator) (*assignment, error) {
	layers := ind.Layers()
	N := len(oc.devs)
	if layers < N {
		return nil, fmt.Errorf("core: %d layers cannot span %d stages", layers, N)
	}
	lowBi := lowestBitIdx(oc)
	low := oc.memLayer[lowBi]

	// Partition proportionally to memory budget, at least one layer each.
	b.counts = resize(b.counts, N)
	counts := b.counts
	var totalBudget float64
	for _, b := range oc.memBudget {
		if b > 0 {
			totalBudget += float64(b)
		}
	}
	if totalBudget <= 0 {
		return nil, fmt.Errorf("core: no device has memory left after reserves")
	}
	assigned := 0
	for j := 0; j < N; j++ {
		share := 0.0
		if oc.memBudget[j] > 0 {
			share = float64(oc.memBudget[j]) / totalBudget
		}
		counts[j] = int(share * float64(layers))
		// Never exceed what the device fits at the lowest bitwidth.
		if low > 0 {
			if fit := int(oc.memBudget[j] / low); counts[j] > fit {
				counts[j] = fit
			}
		}
		if counts[j] < 1 {
			counts[j] = 1
		}
		assigned += counts[j]
	}
	// Fix the total to exactly `layers`, respecting per-device fits.
	for assigned != layers {
		if assigned < layers {
			// Give to the device with the most slack.
			best, bestSlack := -1, int64(-1)
			for j := 0; j < N; j++ {
				slack := oc.memBudget[j] - int64(counts[j])*low
				if slack >= low && slack > bestSlack {
					best, bestSlack = j, slack
				}
			}
			if best == -1 {
				return nil, fmt.Errorf("core: cluster cannot hold %d layers even at the lowest bitwidth", layers)
			}
			counts[best]++
			assigned++
		} else {
			// Take from the device with the least slack but > 1 layer.
			best, bestSlack := -1, int64(1<<62)
			for j := 0; j < N; j++ {
				if counts[j] <= 1 {
					continue
				}
				slack := oc.memBudget[j] - int64(counts[j])*low
				if slack < bestSlack {
					best, bestSlack = j, slack
				}
			}
			if best == -1 {
				return nil, fmt.Errorf("core: cannot reduce partition to %d layers", layers)
			}
			counts[best]--
			assigned--
		}
	}
	a := b.fill(counts, lowBi)
	if !a.valid(N) {
		return nil, fmt.Errorf("core: adabits produced an invalid partition %v", counts)
	}

	// Greedy upgrades: repeatedly raise the bitwidth of the layer with
	// the best ω-reduction per extra byte, while its stage still fits;
	// the first such layer wins a tie. A layer's upgrade depends only
	// on its own bit, so it is priced once and again only when raised.
	b.memUse = resize(b.memUse, N)
	memUse := b.memUse
	clear(memUse)
	for i := range a.stageOf {
		memUse[a.stageOf[i]] += oc.memLayer[a.bitIdx[i]]
	}
	b.nextBits(oc)
	b.up, b.extra, b.gain = resize(b.up, layers), resize(b.extra, layers), resize(b.gain, layers)
	for i := range b.up {
		b.price(oc, ind, i)
	}
	for {
		best, bestGain := -1, 0.0
		for i, next := range b.up {
			if next < 0 {
				continue
			}
			if j := a.stageOf[i]; memUse[j]+b.extra[i] > oc.memBudget[j] || best != -1 && !(b.gain[i] > bestGain) {
				continue
			}
			best, bestGain = i, b.gain[i]
		}
		if best == -1 {
			break
		}
		memUse[a.stageOf[best]] += b.extra[best]
		a.bitIdx[best] = b.up[best]
		b.price(oc, ind, best)
	}
	return a, nil
}

// price sets layer i's upgrade from its bit index in b.as: the next
// larger bitwidth, unless there is none or it does not lower ω.
func (b *startBuffers) price(oc *orderingCosts, ind *Indicator, i int) {
	bi := b.as.bitIdx[i]
	next := b.nextBit[bi]
	b.up[i] = -1
	if next < 0 {
		return
	}
	extra := oc.memLayer[next] - oc.memLayer[bi]
	drop := ind.Omega[i][bi] - ind.Omega[i][next]
	if drop <= 0 {
		return
	}
	gain := drop
	if extra > 0 {
		gain = drop / float64(extra)
	}
	b.up[i], b.extra[i], b.gain[i] = next, extra, gain
}

// nextBits fills b.nextBit: each bit index's next larger bitwidth, or
// -1 for the largest and for the last column, which adabits never
// raises.
func (b *startBuffers) nextBits(oc *orderingCosts) {
	nb := len(oc.bits)
	b.nextBit = resize(b.nextBit, nb)
	for bi, cur := range oc.bits {
		next, nextBits := -1, 1<<30
		if bi+1 < nb {
			for i, bits := range oc.bits {
				if bits > cur && bits < nextBits {
					next, nextBits = i, bits
				}
			}
		}
		b.nextBit[bi] = next
	}
}

// lowestBitIdx returns the column of the smallest bitwidth.
func lowestBitIdx(oc *orderingCosts) int {
	best := 0
	for i, b := range oc.bits {
		if b < oc.bits[best] {
			best = i
		}
	}
	return best
}

// descending returns the candidate bitwidths, largest first, in b.order.
func (b *startBuffers) descending(oc *orderingCosts) []int {
	b.order = append(b.order[:0], oc.bits...)
	slices.Sort(b.order)
	slices.Reverse(b.order)
	return b.order
}

// uniform builds the Uniform baseline under a fixed ordering: even layer
// counts per stage and one global bitwidth, lowered from FP16 until the
// plan fits (or no bitwidth works).
func (b *startBuffers) uniform(oc *orderingCosts, ind *Indicator) (*assignment, error) {
	layers := ind.Layers()
	N := len(oc.devs)
	if layers < N {
		return nil, fmt.Errorf("core: %d layers cannot span %d stages", layers, N)
	}
	b.counts = resize(b.counts, N)
	counts := b.counts
	per, extra := layers/N, layers%N
	for j := range counts {
		counts[j] = per
		if j < extra {
			counts[j]++
		}
	}
	for _, bit := range b.descending(oc) {
		bi := bitColumn(oc, bit)
		fits := true
		for j := 0; j < N; j++ {
			if int64(counts[j])*oc.memLayer[bi] > oc.memBudget[j] {
				fits = false
				break
			}
		}
		if fits {
			return b.fill(counts, bi), nil
		}
	}
	return nil, fmt.Errorf("core: uniform baseline cannot fit the model at any bitwidth")
}

// bitColumn returns the last column of bitwidth bit, or -1.
func bitColumn(oc *orderingCosts, bit int) int {
	bi := -1
	for i, b := range oc.bits {
		if b == bit {
			bi = i
		}
	}
	return bi
}

// het builds the Het baseline under a fixed ordering: uniform bitwidth
// (lowered until feasible) with workload-aware layer counts proportional
// to each device's speed. Following the heterogeneous-pipeline prior
// work the paper compares against (which targets encoder models), the
// balancing is prefill-only — the phase blindness SplitQuant fixes.
func (b *startBuffers) het(oc *orderingCosts, ind *Indicator) (*assignment, error) {
	for _, bit := range b.descending(oc) {
		if a, err := b.hetAtBit(oc, ind, bit); err == nil {
			return a, nil
		}
	}
	return nil, fmt.Errorf("core: het baseline cannot fit the model at any bitwidth")
}

// hetLowest is hetAtBit at the lowest candidate bitwidth: a
// latency-aggressive start point for the bitwidth-transfer search.
func (b *startBuffers) hetLowest(oc *orderingCosts, ind *Indicator) (*assignment, error) {
	return b.hetAtBit(oc, ind, oc.bits[lowestBitIdx(oc)])
}

// hetAtBit builds the Het-style speed-balanced uniform-precision
// assignment at one specific bitwidth.
func (b *startBuffers) hetAtBit(oc *orderingCosts, ind *Indicator, bit int) (*assignment, error) {
	layers := ind.Layers()
	N := len(oc.devs)
	if layers < N {
		return nil, fmt.Errorf("core: %d layers cannot span %d stages", layers, N)
	}
	bi := bitColumn(oc, bit)
	if bi < 0 {
		return nil, fmt.Errorf("core: unknown bitwidth %d", bit)
	}
	// Speed weight: inverse of the per-layer prefill time only.
	b.weights, b.counts = resize(b.weights, N), resize(b.counts, N)
	weights, counts := b.weights, b.counts
	var wSum float64
	for j := 0; j < N; j++ {
		weights[j] = 1 / oc.prefillLayer(j, bi)
		wSum += weights[j]
	}
	assigned := 0
	for j := 0; j < N; j++ {
		counts[j] = int(weights[j] / wSum * float64(layers))
		if counts[j] < 1 {
			counts[j] = 1
		}
		assigned += counts[j]
	}
	for assigned > layers {
		// Remove from the slowest stage with > 1 layer.
		worst, worstW := -1, 0.0
		for j := 0; j < N; j++ {
			if counts[j] > 1 && (worst == -1 || weights[j] < worstW) {
				worst, worstW = j, weights[j]
			}
		}
		if worst == -1 {
			break
		}
		counts[worst]--
		assigned--
	}
	for assigned < layers {
		// Add to the fastest stage.
		best, bestW := 0, weights[0]
		for j := 1; j < N; j++ {
			if weights[j] > bestW {
				best, bestW = j, weights[j]
			}
		}
		counts[best]++
		assigned++
	}
	// Redistribute layers off over-budget stages onto stages with
	// slack (speed-balancing is a preference; memory is a hard
	// constraint) before declaring this bitwidth infeasible.
	for iter := 0; iter < layers*N; iter++ {
		over := -1
		for j := 0; j < N; j++ {
			if int64(counts[j])*oc.memLayer[bi] > oc.memBudget[j] {
				over = j
				break
			}
		}
		if over == -1 {
			break
		}
		best, bestSlack := -1, int64(0)
		for j := 0; j < N; j++ {
			if j == over {
				continue
			}
			slack := oc.memBudget[j] - int64(counts[j]+1)*oc.memLayer[bi]
			if slack >= 0 && (best == -1 || slack > bestSlack) {
				best, bestSlack = j, slack
			}
		}
		if best == -1 || counts[over] <= 1 {
			break
		}
		counts[over]--
		counts[best]++
	}
	for j := 0; j < N; j++ {
		if int64(counts[j])*oc.memLayer[bi] > oc.memBudget[j] {
			return nil, fmt.Errorf("core: het partition infeasible at %d bits", bit)
		}
	}
	a := b.fill(counts, bi)
	if !a.valid(N) {
		return nil, fmt.Errorf("core: het partition invalid at %d bits", bit)
	}
	return a, nil
}
