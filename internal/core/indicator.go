// Package core implements SplitQuant's Assigner (§IV): the joint
// optimizer over per-layer quantization bitwidths, phase-aware
// contiguous layer partitioning, and micro-batch sizing. It enumerates
// device topologies and micro-batch pairs, solves the Eq. 4 ILP via
// internal/ilp (grouped layers, an incumbent cutoff, time limits), and
// provides the adabits and bitwidth-transfer heuristics plus the
// Uniform and Het baselines of §VI.
package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/stats"
)

// Indicator holds the per-layer, per-bitwidth quality-degradation matrix
// ω used in the Eq. 4 objective.
type Indicator struct {
	// Bits lists the candidate bitwidths in the matrix's column order.
	Bits []int
	// Omega[layer][bitIdx] is the indicated degradation of quantizing
	// that layer to that bitwidth (0 for FP16).
	Omega [][]float64
}

// bitIndex returns the column of bit, or -1.
func (ind *Indicator) bitIndex(bit int) int {
	for i, b := range ind.Bits {
		if b == bit {
			return i
		}
	}
	return -1
}

// Of returns ω for (layer, bit). It panics on unknown bitwidths or
// layers, which indicate planner bugs.
func (ind *Indicator) Of(layer, bit int) float64 {
	bi := ind.bitIndex(bit)
	if bi < 0 {
		panic(fmt.Sprintf("core: indicator has no bitwidth %d", bit))
	}
	return ind.Omega[layer][bi]
}

// Total sums ω over a per-layer bit assignment.
func (ind *Indicator) Total(bits []int) float64 {
	if len(bits) != len(ind.Omega) {
		panic(fmt.Sprintf("core: Total with %d bits for %d layers", len(bits), len(ind.Omega)))
	}
	t := 0.0
	for i, b := range bits {
		t += ind.Of(i, b)
	}
	return t
}

// Layers returns the number of layers covered.
func (ind *Indicator) Layers() int { return len(ind.Omega) }

// Normalize rescales the matrix so its maximum entry is 1, making θ
// values comparable across models (the paper hand-tunes θ per setup; a
// normalized ω keeps {1, 10, 50, 100} meaningful here too).
func (ind *Indicator) Normalize() {
	max := 0.0
	for _, row := range ind.Omega {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	if max == 0 {
		return
	}
	for _, row := range ind.Omega {
		for i := range row {
			row[i] /= max
		}
	}
}

// ProfileIndicator builds the variance indicator (Proposition 1) for
// every layer of spec from its synthetic depth profiles, normalized to
// [0, 1].
func ProfileIndicator(spec *model.Spec, bits []int, rounding quant.Rounding) *Indicator {
	ind := &Indicator{Bits: append([]int(nil), bits...)}
	for i := 0; i < spec.Layers; i++ {
		p := spec.Profile(i)
		row := make([]float64, len(bits))
		for bi, b := range bits {
			row[bi] = quant.IndicatorFromStats(int(p.DW), p.WMin, p.WMax, p.MeanX, p.VarX, b, false, rounding)
		}
		ind.Omega = append(ind.Omega, row)
	}
	ind.Normalize()
	return ind
}

// CalibratedIndicator builds the variance indicator from real calibration
// data (e.g. collected on the tinyllm backend), normalized to [0, 1].
func CalibratedIndicator(cal []quant.LayerCalibration, bits []int, rounding quant.Rounding) *Indicator {
	ind := &Indicator{Bits: append([]int(nil), bits...)}
	for _, lc := range cal {
		row := make([]float64, len(bits))
		for bi, b := range bits {
			row[bi] = quant.VarianceIndicator(lc, b, false, rounding)
		}
		ind.Omega = append(ind.Omega, row)
	}
	ind.Normalize()
	return ind
}

// HessianIndicatorMatrix builds the HAWQ-style baseline indicator from
// calibration data (Table V comparison), normalized to [0, 1].
func HessianIndicatorMatrix(cal []quant.LayerCalibration, bits []int, rounding quant.Rounding, rng *stats.RNG, iters int) (*Indicator, error) {
	ind := &Indicator{Bits: append([]int(nil), bits...)}
	for li, lc := range cal {
		row := make([]float64, len(bits))
		for bi, b := range bits {
			h, err := quant.HessianIndicator(lc, b, false, rounding, rng, iters)
			if err != nil {
				return nil, fmt.Errorf("core: hessian indicator layer %d: %w", li, err)
			}
			row[bi] = h
		}
		ind.Omega = append(ind.Omega, row)
	}
	ind.Normalize()
	return ind, nil
}

// RandomIndicatorMatrix builds the Table V random baseline: uniform
// values, monotone in bitwidth within each layer.
func RandomIndicatorMatrix(rng *stats.RNG, layers int, bits []int) *Indicator {
	return &Indicator{Bits: append([]int(nil), bits...), Omega: quant.RandomIndicator(rng, layers, bits)}
}
