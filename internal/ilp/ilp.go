// Package ilp implements a 0/1 mixed-integer linear-program solver by
// best-first branch and bound over LP relaxations (internal/lp). It is
// the reproduction's stand-in for GUROBI in SplitQuant's optimizer: it
// supports warm starts (the paper seeds the search from adabits /
// bitwidth-transfer solutions), a wall-clock time limit matching the
// 60-second budget of §VI-F, and reports whether optimality was proved
// or the incumbent is merely the best found in time.
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
// indices restricted to {0, 1}. Box rows x_j <= 1 for the binaries are
// added automatically.
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
	// WarmStart, when non-nil, provides an initial feasible solution
	// whose objective prunes the search from the start.
	WarmStart []float64
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
	isBin := make(map[int]bool, len(p.Binary))
	for _, j := range p.Binary {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("ilp: binary index %d out of range %d", j, n)
		}
		isBin[j] = true
	}
	base := cloneLP(&p.LP)
	// Box the binaries.
	for _, j := range p.Binary {
		row := make([]float64, n)
		row[j] = 1
		base.A = append(base.A, row)
		base.Senses = append(base.Senses, lp.LE)
		base.B = append(base.B, 1)
	}

	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}
	best := &Solution{Status: NoSolution, Objective: math.Inf(1)}
	if opts.WarmStart != nil {
		if len(opts.WarmStart) != n {
			return nil, fmt.Errorf("ilp: warm start has %d vars, want %d", len(opts.WarmStart), n)
		}
		if feasible(&p.LP, p.Binary, opts.WarmStart) {
			best.X = append([]float64(nil), opts.WarmStart...)
			best.Objective = dot(p.LP.C, opts.WarmStart)
			best.Status = Feasible
		}
	}

	queue := &nodeQueue{{fixes: map[int]float64{}, bound: math.Inf(-1)}}
	heap.Init(queue)
	rootInfeasible := true
	// dropped records a node abandoned with its subtree unexplored (its
	// LP hit the pivot budget or saw ctx cancelled mid-simplex): the
	// search can then prove neither optimality nor infeasibility.
	dropped := false

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
		// Bound pruning against the incumbent.
		if nd.bound >= best.Objective-gap*math.Abs(best.Objective)-1e-12 && best.Status != NoSolution {
			continue
		}
		best.Nodes++

		sub := applyFixes(base, nd.fixes, n)
		sol, err := lp.SolveContext(ctx, sub, 0)
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
		rootInfeasible = false
		if sol.Objective >= best.Objective-1e-12 && best.Status != NoSolution {
			continue // bound cannot improve the incumbent
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
			// Integer feasible.
			if sol.Objective < best.Objective {
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
		if rootInfeasible && queue.Len() == 0 && !dropped {
			best.Status = Infeasible
		}
		return best, nil
	}
	if !dropped && (queue.Len() == 0 || allPruned(queue, best.Objective)) {
		best.Status = Optimal
		best.Proved = true
	}
	return best, nil
}

// allPruned reports whether every open node's bound is at or above the
// incumbent (within gap), i.e. the incumbent is optimal.
func allPruned(q *nodeQueue, incumbent float64) bool {
	for _, nd := range *q {
		if nd.bound < incumbent-gap*math.Abs(incumbent)-1e-12 {
			return false
		}
	}
	return true
}

// cloneLP deep-copies an LP.
func cloneLP(p *lp.Problem) *lp.Problem {
	out := &lp.Problem{
		C:      append([]float64(nil), p.C...),
		Senses: append([]lp.Sense(nil), p.Senses...),
		B:      append([]float64(nil), p.B...),
	}
	out.A = make([][]float64, len(p.A))
	for i := range p.A {
		out.A[i] = append([]float64(nil), p.A[i]...)
	}
	return out
}

// applyFixes appends x_j = v rows for each branch decision.
func applyFixes(base *lp.Problem, fixes map[int]float64, n int) *lp.Problem {
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
		row := make([]float64, n)
		row[j] = 1
		a = append(a, row)
		senses = append(senses, lp.EQ)
		b = append(b, fixes[j])
	}
	sub.A, sub.Senses, sub.B = a, senses, b
	return sub
}

// feasible checks x against the LP constraints and binary restrictions.
func feasible(p *lp.Problem, binary []int, x []float64) bool {
	for _, j := range binary {
		v := x[j]
		if math.Abs(v) > intTol && math.Abs(v-1) > intTol {
			return false
		}
	}
	for _, v := range x {
		if v < -intTol {
			return false
		}
	}
	for i, row := range p.A {
		lhs := dot(row, x)
		switch p.Senses[i] {
		case lp.LE:
			if lhs > p.B[i]+1e-6 {
				return false
			}
		case lp.GE:
			if lhs < p.B[i]-1e-6 {
				return false
			}
		case lp.EQ:
			if math.Abs(lhs-p.B[i]) > 1e-6 {
				return false
			}
		}
	}
	return true
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
