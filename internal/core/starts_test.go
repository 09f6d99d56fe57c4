package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// adabits, het, hetAtBit and uniform build a start point into fresh
// buffers: the assignment they return is the caller's.
func adabits(oc *orderingCosts, ind *Indicator) (*assignment, error) {
	return new(startBuffers).adabits(oc, ind)
}

func het(oc *orderingCosts, ind *Indicator) (*assignment, error) {
	return new(startBuffers).het(oc, ind)
}

func hetAtBit(oc *orderingCosts, ind *Indicator, bit int) (*assignment, error) {
	return new(startBuffers).hetAtBit(oc, ind, bit)
}

func uniform(oc *orderingCosts, ind *Indicator) (*assignment, error) {
	return new(startBuffers).uniform(oc, ind)
}

// adabitsRef is the adabits builder that startBuffers.adabits replaced:
// every greedy step re-prices every layer's upgrade, finding the next
// bitwidth by a scan (nextBitIdxRef), in O(L) per step. It is kept as
// the reference the cached-gain greedy must reproduce exactly.
func adabitsRef(oc *orderingCosts, ind *Indicator) (*assignment, error) {
	layers := ind.Layers()
	N := len(oc.devs)
	if layers < N {
		return nil, fmt.Errorf("core: %d layers cannot span %d stages", layers, N)
	}
	lowBi := lowestBitIdx(oc)
	low := oc.memLayer[lowBi]

	// Partition proportionally to memory budget, at least one layer each.
	counts := make([]int, N)
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

	a := &assignment{stageOf: make([]int, layers), bitIdx: make([]int, layers)}
	li := 0
	for j := 0; j < N; j++ {
		for k := 0; k < counts[j]; k++ {
			a.stageOf[li] = j
			a.bitIdx[li] = lowBi
			li++
		}
	}
	if !a.valid(N) {
		return nil, fmt.Errorf("core: adabits produced an invalid partition %v", counts)
	}

	// Greedy upgrades: repeatedly raise the bitwidth of the layer with
	// the best ω-reduction per extra byte, while its stage still fits.
	memUse := make([]int64, N)
	for i := range a.stageOf {
		memUse[a.stageOf[i]] += oc.memLayer[a.bitIdx[i]]
	}
	type upgrade struct {
		layer int
		gain  float64 // ω reduction per byte
	}
	for {
		best := upgrade{layer: -1}
		for i := range a.stageOf {
			bi := a.bitIdx[i]
			if bi+1 >= len(oc.bits) {
				continue
			}
			next := nextBitIdxRef(oc, bi)
			if next < 0 {
				continue
			}
			extra := oc.memLayer[next] - oc.memLayer[bi]
			j := a.stageOf[i]
			if memUse[j]+extra > oc.memBudget[j] {
				continue
			}
			drop := ind.Omega[i][bi] - ind.Omega[i][next]
			if drop <= 0 {
				continue
			}
			gain := drop
			if extra > 0 {
				gain = drop / float64(extra)
			}
			if best.layer == -1 || gain > best.gain {
				best = upgrade{layer: i, gain: gain}
			}
		}
		if best.layer == -1 {
			break
		}
		i := best.layer
		next := nextBitIdxRef(oc, a.bitIdx[i])
		extra := oc.memLayer[next] - oc.memLayer[a.bitIdx[i]]
		memUse[a.stageOf[i]] += extra
		a.bitIdx[i] = next
	}
	return a, nil
}

// nextBitIdxRef returns the column of the next larger bitwidth after bi,
// or -1 when bi is already the largest.
func nextBitIdxRef(oc *orderingCosts, bi int) int {
	cur := oc.bits[bi]
	best, bestBits := -1, 1<<30
	for i, b := range oc.bits {
		if b > cur && b < bestBits {
			best, bestBits = i, b
		}
	}
	return best
}

// referenceStarts returns the start points bestStart searches from, in
// its order, built by the references: adabitsRef, and het, het at the
// lowest bitwidth and uniform into fresh buffers.
func referenceStarts(oc *orderingCosts, ind *Indicator) []*assignment {
	var starts []*assignment
	add := func(as *assignment, err error) {
		if err == nil {
			starts = append(starts, as)
		}
	}
	add(adabitsRef(oc, ind))
	add(het(oc, ind))
	add(hetAtBit(oc, ind, oc.bits[lowestBitIdx(oc)]))
	add(uniform(oc, ind))
	return starts
}

// sameStart requires a start builder's result on reused buffers to
// equal the reference's: both fail, or both return equal assignments.
func sameStart(t *testing.T, name string, got *assignment, gotErr error, want *assignment, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\ngot  %v\nwant %v", name, got, want)
	}
}

// FuzzStartPoints checks the start builders on reused buffers against
// their references: adabits against adabitsRef, and het, hetAtBit at
// every bitwidth and uniform against a build into fresh buffers. The
// buffers first hold builds of a second fuzzed instance, mostly of
// another layer and stage count, so a stale entry shows. The inputs pick a tiny
// instance (deltaInstance; memory-tight from 30 up), scale every
// device's budget by a quarter to five quarters, and may give every
// layer the first layer's ω row, so adabits' upgrades tie on gain, or
// round ω to quarters, so some of them do.
func FuzzStartPoints(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(3), uint8(0), uint8(1), uint8(5))
	f.Add(uint8(7), uint8(10), uint8(4), uint8(1), uint8(12), uint8(0))
	f.Add(uint8(13), uint8(9), uint8(2), uint8(2), uint8(40), uint8(3))
	f.Add(uint8(33), uint8(10), uint8(4), uint8(1), uint8(3), uint8(8))
	f.Add(uint8(51), uint8(8), uint8(3), uint8(0), uint8(0), uint8(2))
	f.Add(uint8(58), uint8(6), uint8(1), uint8(2), uint8(36), uint8(10))
	f.Fuzz(func(t *testing.T, instance, layers, squeeze, ties, other, otherLayers uint8) {
		oc, ind := deltaInstance(instance, layers)
		for j := range oc.memBudget {
			oc.memBudget[j] = oc.memBudget[j] * int64(1+squeeze%5) / 4
		}
		switch ties % 3 {
		case 1:
			for i := range ind.Omega {
				ind.Omega[i] = ind.Omega[0]
			}
		case 2:
			for _, row := range ind.Omega {
				for b, w := range row {
					row[b] = math.Round(w*4) / 4
				}
			}
		}
		var buf startBuffers
		dirty := func() {
			prevOC, prevInd := deltaInstance(other, otherLayers)
			buf.adabits(prevOC, prevInd)
			buf.het(prevOC, prevInd)
			buf.uniform(prevOC, prevInd)
		}
		dirty()
		got, gotErr := buf.adabits(oc, ind)
		want, wantErr := adabitsRef(oc, ind)
		sameStart(t, "adabits", got, gotErr, want, wantErr)
		dirty()
		got, gotErr = buf.het(oc, ind)
		want, wantErr = het(oc, ind)
		sameStart(t, "het", got, gotErr, want, wantErr)
		for _, bit := range oc.bits {
			dirty()
			got, gotErr = buf.hetAtBit(oc, ind, bit)
			want, wantErr = hetAtBit(oc, ind, bit)
			sameStart(t, fmt.Sprintf("hetAtBit(%d)", bit), got, gotErr, want, wantErr)
		}
		dirty()
		got, gotErr = buf.uniform(oc, ind)
		want, wantErr = uniform(oc, ind)
		sameStart(t, "uniform", got, gotErr, want, wantErr)
	})
}
