package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// ilpConfig parameterizes one ILP solve for a fixed ordering and
// micro-batch pair.
type ilpConfig struct {
	// GroupSize groups consecutive layers into one decision (§VI-F's
	// layer grouping); 1 solves the full problem.
	GroupSize int
	// TimeLimit bounds the branch-and-bound wall clock (§VI-F uses 60 s).
	TimeLimit time.Duration
	// MaxNodes bounds explored nodes (0 = unlimited).
	MaxNodes int
	// QualityCap, when > 0, adds Σω ≤ cap (the §VI-C quality floor).
	QualityCap float64
	// Incumbent, when finite and > 0, is the Eq. 4 objective of a plan
	// the caller already holds: the solve cuts off every point that
	// cannot beat it.
	Incumbent float64
}

// cutoffMargin widens the solve's cutoff, relative to the objectives it
// is computed from. It covers the rounding between the ILP's objective
// and evaluate's, the simplex's tolerances and the search's pruning gap,
// so no node is cut that could hold a plan beating the incumbent.
const cutoffMargin = 1e-6

// groupBounds returns the [start, end) layer ranges of each group.
func groupBounds(layers, groupSize int) [][2]int {
	if groupSize < 1 {
		groupSize = 1
	}
	var out [][2]int
	for lo := 0; lo < layers; lo += groupSize {
		hi := lo + groupSize
		if hi > layers {
			hi = layers
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// solveILP builds and solves the Eq. 4-16 integer program over grouped
// layers for one (ordering, η, ξ) configuration. It returns the best
// assignment found, whether optimality was proved, and the node count.
// A done ctx stops the branch and bound early, yielding the incumbent.
func solveILP(ctx context.Context, oc *orderingCosts, ind *Indicator, theta float64, cfg ilpConfig) (*assignment, *ilp.Solution, error) {
	layers := ind.Layers()
	groups := groupBounds(layers, cfg.GroupSize)
	G := len(groups)
	N := len(oc.devs)
	K := len(oc.bits)
	if G < N {
		return nil, nil, fmt.Errorf("core: %d groups cannot cover %d pipeline stages; lower the group size", G, N)
	}
	nz := G * N * K
	nv := nz + 2 // + Tpre_max, Tdec_max
	idx := func(g, j, bi int) int { return (g*N+j)*K + bi }
	tPre, tDec := nz, nz+1

	// ω summed per group and bit.
	gOmega := make([][]float64, G)
	for g, b := range groups {
		gOmega[g] = make([]float64, K)
		for i := b[0]; i < b[1]; i++ {
			for bi := 0; bi < K; bi++ {
				gOmega[g][bi] += ind.Omega[i][bi]
			}
		}
	}

	prob := lp.Problem{C: make([]float64, nv)}
	n := oc.batch.GenTokens
	for g, b := range groups {
		size := float64(b[1] - b[0])
		for j := 0; j < N; j++ {
			for bi := 0; bi < K; bi++ {
				prob.C[idx(g, j, bi)] = size*(oc.prefillLayer(j, bi)+float64(n-1)*oc.decodeLayer(j, bi)) +
					theta*gOmega[g][bi]
			}
		}
	}
	prob.C[tPre] = oc.aPre
	prob.C[tDec] = oc.aDec

	addRow := func(row []float64, sense lp.Sense, rhs float64) {
		prob.A = append(prob.A, row)
		prob.Senses = append(prob.Senses, sense)
		prob.B = append(prob.B, rhs)
	}
	// (9) one placement per group.
	for g := 0; g < G; g++ {
		row := make([]float64, nv)
		for j := 0; j < N; j++ {
			for bi := 0; bi < K; bi++ {
				row[idx(g, j, bi)] = 1
			}
		}
		addRow(row, lp.EQ, 1)
	}
	// (5)-(6) stage-time definitions via Tmax.
	for j := 0; j < N; j++ {
		preRow := make([]float64, nv)
		decRow := make([]float64, nv)
		for g, b := range groups {
			size := float64(b[1] - b[0])
			for bi := 0; bi < K; bi++ {
				preRow[idx(g, j, bi)] = size * oc.prefillLayer(j, bi)
				decRow[idx(g, j, bi)] = size * oc.decodeLayer(j, bi)
			}
		}
		preRow[tPre] = -1
		decRow[tDec] = -1
		addRow(preRow, lp.LE, 0)
		addRow(decRow, lp.LE, 0)
	}
	// (7) communication lower bounds (constants).
	maxCPre, maxCDec := 0.0, 0.0
	for j := 0; j < N; j++ {
		if oc.commPre[j] > maxCPre {
			maxCPre = oc.commPre[j]
		}
		if oc.commDec[j] > maxCDec {
			maxCDec = oc.commDec[j]
		}
	}
	if maxCPre > 0 {
		row := make([]float64, nv)
		row[tPre] = 1
		addRow(row, lp.GE, maxCPre)
	}
	if maxCDec > 0 {
		row := make([]float64, nv)
		row[tDec] = 1
		addRow(row, lp.GE, maxCDec)
	}
	// (12)-(13) memory capacity, in units of one layer's footprint at
	// the first bitwidth: bytes (~1e9) next to the time rows' seconds
	// would swamp the simplex's absolute tolerances. The budget may be
	// <= 0, so it is never the divisor.
	memScale := 1.0
	if oc.memLayer[0] > 0 {
		memScale = float64(oc.memLayer[0])
	}
	for j := 0; j < N; j++ {
		row := make([]float64, nv)
		for g, b := range groups {
			size := float64(b[1] - b[0])
			for bi := 0; bi < K; bi++ {
				row[idx(g, j, bi)] = size * float64(oc.memLayer[bi]) / memScale
			}
		}
		addRow(row, lp.LE, float64(oc.memBudget[j])/memScale)
	}
	// (15) anchors: first group on the first device, last on the last.
	firstRow := make([]float64, nv)
	for bi := 0; bi < K; bi++ {
		firstRow[idx(0, 0, bi)] = 1
	}
	addRow(firstRow, lp.EQ, 1)
	lastRow := make([]float64, nv)
	for bi := 0; bi < K; bi++ {
		lastRow[idx(G-1, N-1, bi)] = 1
	}
	addRow(lastRow, lp.EQ, 1)
	// (16) contiguity: stage index is non-decreasing and rises ≤ 1.
	for g := 0; g+1 < G; g++ {
		up := make([]float64, nv)
		down := make([]float64, nv)
		for j := 0; j < N; j++ {
			for bi := 0; bi < K; bi++ {
				up[idx(g+1, j, bi)] += float64(j)
				up[idx(g, j, bi)] -= float64(j)
				down[idx(g+1, j, bi)] += float64(j)
				down[idx(g, j, bi)] -= float64(j)
			}
		}
		addRow(up, lp.GE, 0)   // stage(g+1) >= stage(g)
		addRow(down, lp.LE, 1) // stage(g+1) <= stage(g) + 1
	}
	// Optional quality floor.
	if cfg.QualityCap > 0 {
		row := make([]float64, nv)
		for g := 0; g < G; g++ {
			for j := 0; j < N; j++ {
				for bi := 0; bi < K; bi++ {
					row[idx(g, j, bi)] = gOmega[g][bi]
				}
			}
		}
		addRow(row, lp.LE, cfg.QualityCap)
	}

	binary := make([]int, nz)
	for i := range binary {
		binary[i] = i
	}
	opts := ilp.Options{TimeLimit: cfg.TimeLimit, MaxNodes: cfg.MaxNodes}
	if inc := cfg.Incumbent; inc > 0 && !math.IsInf(inc, 1) {
		// The ILP's objective omits the master engine's constant.
		cut := inc - oc.masterConst + cutoffMargin*(inc+math.Abs(oc.masterConst))
		opts.Cutoff = &cut
	}
	sol, err := ilp.SolveContext(ctx, &ilp.Problem{LP: prob, Binary: binary}, opts)
	if err != nil {
		return nil, nil, err
	}
	if sol.X == nil { // infeasible, cut off, or no point found in budget
		return nil, sol, nil
	}
	// Decode z into a per-layer assignment.
	a := &assignment{stageOf: make([]int, layers), bitIdx: make([]int, layers)}
	for g, b := range groups {
		found := false
		for j := 0; j < N && !found; j++ {
			for bi := 0; bi < K; bi++ {
				if sol.X[idx(g, j, bi)] > 0.5 {
					for i := b[0]; i < b[1]; i++ {
						a.stageOf[i] = j
						a.bitIdx[i] = bi
					}
					found = true
					break
				}
			}
		}
		if !found {
			return nil, sol, fmt.Errorf("core: ILP solution leaves group %d unassigned", g)
		}
	}
	return a, sol, nil
}
