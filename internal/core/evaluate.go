package core

import (
	"fmt"
	"math"

	"repro/internal/plan"
)

// assignment is the planner-internal representation of a candidate
// solution under a fixed ordering: stage boundaries plus per-layer bit
// indices (into the costs' bit set).
type assignment struct {
	// stageOf[i] is the device index of layer i (non-decreasing).
	stageOf []int
	// bitIdx[i] is the bitwidth column of layer i.
	bitIdx []int
}

// clone deep-copies the assignment.
func (a *assignment) clone() *assignment {
	return &assignment{
		stageOf: append([]int(nil), a.stageOf...),
		bitIdx:  append([]int(nil), a.bitIdx...),
	}
}

// valid reports whether the stage mapping is contiguous, non-skipping,
// and covers every device of the ordering.
func (a *assignment) valid(nDev int) bool {
	if len(a.stageOf) == 0 || a.stageOf[0] != 0 || a.stageOf[len(a.stageOf)-1] != nDev-1 {
		return false
	}
	for i := 1; i < len(a.stageOf); i++ {
		d := a.stageOf[i] - a.stageOf[i-1]
		if d != 0 && d != 1 {
			return false
		}
	}
	return true
}

// evaluation is the analytic objective breakdown of an assignment.
type evaluation struct {
	// Latency is the Eq. 4 pipeline-latency estimate (seconds).
	Latency float64
	// Quality is Σ ω over the assignment.
	Quality float64
	// Objective is Latency + θ·Quality.
	Objective float64
	// Feasible is false when a stage exceeds device memory.
	Feasible bool
	// PreMax, DecMax are the slowest-stage phase times.
	PreMax, DecMax float64
}

// evaluate computes the analytic Eq. 4 objective of an assignment.
func evaluate(a *assignment, oc *orderingCosts, ind *Indicator, theta float64) evaluation {
	nDev := len(oc.devs)
	preStage := make([]float64, nDev)
	decStage := make([]float64, nDev)
	memStage := make([]int64, nDev)
	quality := stageSums(a, oc, ind, preStage, decStage, memStage)
	return objective(oc, preStage, decStage, memStage, quality, theta)
}

// stageSums adds each layer's prefill, decode and memory cost to its
// stage's entry of preStage, decStage and memStage (zeroed by the
// caller), visiting layers in ascending order, and returns Σ ω summed in
// the same order. The bitwidth-transfer search re-sums single stages in
// this order too, so its floats match evaluate's bit for bit.
func stageSums(a *assignment, oc *orderingCosts, ind *Indicator, preStage, decStage []float64, memStage []int64) float64 {
	quality := 0.0
	for i, j := range a.stageOf {
		bi := a.bitIdx[i]
		preStage[j] += oc.prefillLayer(j, bi)
		decStage[j] += oc.decodeLayer(j, bi)
		memStage[j] += oc.memLayer[bi]
		quality += ind.Omega[i][bi]
	}
	return quality
}

// objective is the Eq. 4 tail shared by evaluate and the bitwidth-transfer
// search: memory feasibility, the slowest-stage phase times, the pipeline
// latency and the θ-weighted objective, from per-stage sums and Σ ω.
func objective(oc *orderingCosts, preStage, decStage []float64, memStage []int64, quality, theta float64) evaluation {
	obj, lat, preMax, decMax, feasible := eq4(oc, preStage, decStage, memStage, quality, theta)
	return evaluation{Latency: lat, Quality: quality, Objective: obj, Feasible: feasible, PreMax: preMax, DecMax: decMax}
}

// eq4 is the one Eq. 4 formula behind objective, returning its fields
// unboxed; the bitwidth-transfer search scores moves with it directly.
func eq4(oc *orderingCosts, preStage, decStage []float64, memStage []int64, quality, theta float64) (obj, latency, preMax, decMax float64, feasible bool) {
	feasible = true
	var preSum, decSum float64
	for j := range preStage {
		if memStage[j] > oc.memBudget[j] {
			feasible = false
		}
		p := maxf(preStage[j], oc.commPre[j])
		d := maxf(decStage[j], oc.commDec[j])
		if p > preMax {
			preMax = p
		}
		if d > decMax {
			decMax = d
		}
		preSum += preStage[j]
		decSum += decStage[j]
	}
	n := oc.batch.GenTokens
	latency = oc.aPre*preMax + preSum + float64(n-1)*decSum + oc.aDec*decMax + oc.masterConst
	return latency + theta*quality, latency, preMax, decMax, feasible
}

// maxf is math.Max with its ordered cases inlined: equal operands
// (including ±0) and NaNs fall through to math.Max.
func maxf(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}

// toPlan converts an assignment into a public deployment plan.
func toPlan(a *assignment, oc *orderingCosts, ind *Indicator, theta float64, method string, bitKV int) (*plan.Plan, error) {
	nDev := len(oc.devs)
	if !a.valid(nDev) {
		return nil, fmt.Errorf("core: assignment does not cover the %d-stage ordering", nDev)
	}
	ev := evaluate(a, oc, ind, theta)
	p := &plan.Plan{
		Model:             "",
		PrefillMicroBatch: oc.eta,
		DecodeMicroBatch:  oc.xi,
		BitKV:             bitKV,
		QualityPenalty:    ev.Quality,
		Objective:         ev.Objective,
		Method:            method,
	}
	first := 0
	for j := 0; j < nDev; j++ {
		var bits []int
		for i, st := range a.stageOf {
			if st == j {
				bits = append(bits, oc.bits[a.bitIdx[i]])
			}
		}
		p.Stages = append(p.Stages, plan.Stage{Device: oc.devs[j], FirstLayer: first, Bits: bits})
		first += len(bits)
	}
	return p, nil
}
