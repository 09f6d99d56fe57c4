// Package ilp implements a 0/1 mixed-integer linear-program solver by
// best-first branch and bound over LP relaxations (internal/lp). It is
// the reproduction's stand-in for GUROBI in SplitQuant's optimizer: it
// takes an objective cutoff (GUROBI's Cutoff: the paper seeds the search
// with the bitwidth-transfer solution, whose objective the caller passes
// so the search prunes against it from the root), a wall-clock time
// limit matching the 60-second budget of §VI-F, and reports whether
// optimality was proved or the incumbent is merely the best found in
// time.
package ilp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/lp"
)

// Problem is a minimization MILP: the embedded LP plus a set of variable
// indices restricted to {0, 1}. A box row x_j <= 1 is added for each
// binary that no row of the LP already bounds at 1 (see impliedBox).
type Problem struct {
	LP lp.Problem
	// Binary lists the indices of 0/1-restricted variables.
	Binary []int
}

// Options controls the search.
type Options struct {
	// TimeLimit bounds wall-clock solve time (0 = no limit).
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored nodes (0 = no limit).
	MaxNodes int
	// Cutoff, when non-nil, is the objective of a solution the caller
	// already holds. The search returns only integer points strictly
	// below it and prunes every node whose LP bound is not below it, by
	// the gap rule it applies against an incumbent.
	Cutoff *float64
}

// gap is the relative optimality gap at which a node is pruned against
// the incumbent.
const gap = 1e-9

// Status reports how the solve ended.
type Status int

// Solve outcomes.
const (
	// Optimal means the incumbent was proved optimal.
	Optimal Status = iota
	// Feasible means a solution was found but limits stopped the proof.
	Feasible
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// NoSolution means limits expired before any feasible point appeared.
	NoSolution
	// CutOff means the search proved that no integer point lies below
	// Options.Cutoff: it pruned some node against the cutoff, exhausted
	// the rest of the tree and dropped no subtree.
	CutOff
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case NoSolution:
		return "no-solution"
	case CutOff:
		return "cutoff"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the incumbent returned by Solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Proved reports whether optimality was certified.
	Proved bool
}

const intTol = 1e-6

// node is one open subproblem: the set of branched variable fixings.
type node struct {
	fixes map[int]float64
	bound float64
	depth int
}

// nodeQueue is a min-heap on LP bound (best-first search).
type nodeQueue []*node

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Solve minimizes the MILP under the given options.
func Solve(p *Problem, opts Options) (*Solution, error) {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext is Solve with cooperative cancellation. A cancelled or
// deadline-exceeded context stops the branch-and-bound search promptly
// (the node loop and the underlying LP pivots both poll ctx) and returns
// the best incumbent found so far — the same graceful degradation as the
// TimeLimit option. Callers distinguish a proved optimum from an
// interrupted search via Solution.Proved; an interrupted search never
// reports Infeasible.
func SolveContext(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	if err := p.LP.Validate(); err != nil {
		return nil, err
	}
	n := len(p.LP.C)
	for _, j := range p.Binary {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("ilp: binary index %d out of range %d", j, n)
		}
	}
	// units holds the rows e_j, built on first use and shared by the box
	// and fix rows of every node LP (no solve writes to a row).
	units := make([][]float64, n)
	unit := func(j int) []float64 {
		if units[j] == nil {
			units[j] = make([]float64, n)
			units[j][j] = 1
		}
		return units[j]
	}
	// Box the binaries no row bounds already. The full slice expressions
	// make the appends copy, leaving the caller's slices alone.
	m := len(p.LP.A)
	base := &lp.Problem{C: p.LP.C, A: p.LP.A[:m:m], Senses: p.LP.Senses[:m:m], B: p.LP.B[:m:m]}
	implied := impliedBox(&p.LP)
	for _, j := range p.Binary {
		if implied[j] {
			continue
		}
		base.A = append(base.A, unit(j))
		base.Senses = append(base.Senses, lp.LE)
		base.B = append(base.B, 1)
	}

	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}
	best := &Solution{Status: NoSolution, Objective: math.Inf(1)}
	// bar is the objective a point must beat: the incumbent's once there
	// is one, else the cutoff (+Inf without one).
	bar := math.Inf(1)
	if opts.Cutoff != nil {
		if math.IsNaN(*opts.Cutoff) {
			return nil, fmt.Errorf("ilp: cutoff is NaN")
		}
		bar = *opts.Cutoff
	}

	queue := &nodeQueue{{fixes: map[int]float64{}, bound: math.Inf(-1)}}
	heap.Init(queue)
	// dropped records a node abandoned with its subtree unexplored (its
	// LP hit the pivot budget or saw ctx cancelled mid-simplex): the
	// search can then prove neither optimality nor infeasibility.
	dropped := false
	// cut records that a node was pruned. Before any incumbent every
	// prune is against the cutoff, so an empty exhausted search that cut
	// a node proves only that no point lies below the cutoff.
	cut := false
	// One Solver for every node LP, so they all reuse one tableau.
	var solver lp.Solver

	for queue.Len() > 0 {
		if opts.MaxNodes > 0 && best.Nodes >= opts.MaxNodes {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		if ctx.Err() != nil {
			break
		}
		nd := heap.Pop(queue).(*node)
		// Bound pruning against the incumbent or the cutoff.
		if prunes(nd.bound, bar) {
			cut = true
			continue
		}
		best.Nodes++

		sub := applyFixes(base, nd.fixes, unit)
		sol, err := solver.Solve(ctx, sub, 0)
		if err != nil {
			return nil, err
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// Relaxation unbounded at the root with no fixes: the MILP is
			// unbounded or the formulation is missing bounds; surface it.
			if nd.depth == 0 {
				return nil, fmt.Errorf("ilp: LP relaxation unbounded; add variable bounds")
			}
			continue
		case lp.IterLimit:
			dropped = true
			continue
		}
		if sol.Objective >= bar-1e-12 {
			cut = true
			continue // bound cannot improve the incumbent or beat the cutoff
		}
		// Find the most fractional binary.
		branch, frac := -1, 0.0
		for _, j := range p.Binary {
			v := sol.X[j]
			f := math.Abs(v - math.Round(v))
			if f > intTol && f > frac {
				frac = f
				branch = j
			}
		}
		if branch == -1 {
			// Integer feasible, and below bar by the check above.
			if sol.Objective < best.Objective {
				bar = sol.Objective
				best.Objective = sol.Objective
				best.X = append([]float64(nil), sol.X...)
				best.Status = Feasible
			}
			continue
		}
		for _, val := range []float64{0, 1} {
			child := &node{fixes: make(map[int]float64, len(nd.fixes)+1), bound: sol.Objective, depth: nd.depth + 1}
			for k, v := range nd.fixes {
				child.fixes[k] = v
			}
			child.fixes[branch] = val
			heap.Push(queue, child)
		}
	}

	if best.Status == NoSolution {
		// An exhausted search that dropped no subtree has proved that no
		// integer point exists, or, if it cut a node, that none lies
		// below the cutoff.
		if !dropped && allPruned(queue, bar) {
			best.Status = Infeasible
			if cut {
				best.Status = CutOff
			}
		}
		return best, nil
	}
	if !dropped && allPruned(queue, bar) {
		best.Status = Optimal
		best.Proved = true
	}
	return best, nil
}

// prunes reports whether a node with the given LP bound cannot hold a
// point below bar (within gap). Nothing prunes against an infinite bar.
func prunes(bound, bar float64) bool {
	return !math.IsInf(bar, 1) && bound >= bar-gap*math.Abs(bar)-1e-12
}

// allPruned reports whether every open node prunes against bar: with an
// incumbent, that it is optimal; without one, that the search is over.
func allPruned(q *nodeQueue, bar float64) bool {
	for _, nd := range *q {
		if !prunes(nd.bound, bar) {
			return false
		}
	}
	return true
}

// impliedBox reports, per variable, whether a row of p already bounds
// it at 1: an LE or EQ row with b >= 0 and no negative coefficient gives
// x_j <= b/a_j, since x >= 0, so a_j >= b > 0, or b = 0, implies x_j <= 1.
func impliedBox(p *lp.Problem) []bool {
	implied := make([]bool, len(p.C))
rows:
	for i, row := range p.A {
		b := p.B[i]
		if p.Senses[i] == lp.GE || b < 0 {
			continue
		}
		for _, v := range row {
			if v < 0 {
				continue rows
			}
		}
		for j, v := range row {
			if v > 0 && v >= b {
				implied[j] = true
			}
		}
	}
	return implied
}

// applyFixes appends x_j = v rows (unit(j) = e_j) for each branch
// decision.
func applyFixes(base *lp.Problem, fixes map[int]float64, unit func(int) []float64) *lp.Problem {
	sub := &lp.Problem{
		C:      base.C,
		A:      base.A,
		Senses: base.Senses,
		B:      base.B,
	}
	if len(fixes) == 0 {
		return sub
	}
	// Copy-on-append: share the base rows, append fix rows. The fixes are
	// applied in sorted variable order so the subproblem — and therefore
	// the simplex pivot sequence — is identical across runs regardless of
	// map iteration order.
	a := make([][]float64, len(base.A), len(base.A)+len(fixes))
	copy(a, base.A)
	senses := make([]lp.Sense, len(base.Senses), len(base.Senses)+len(fixes))
	copy(senses, base.Senses)
	b := make([]float64, len(base.B), len(base.B)+len(fixes))
	copy(b, base.B)
	keys := make([]int, 0, len(fixes))
	for j := range fixes {
		keys = append(keys, j)
	}
	sort.Ints(keys)
	for _, j := range keys {
		a = append(a, unit(j))
		senses = append(senses, lp.EQ)
		b = append(b, fixes[j])
	}
	sub.A, sub.Senses, sub.B = a, senses, b
	return sub
}
