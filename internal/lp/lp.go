// Package lp implements a dense two-phase primal simplex solver for
// linear programs in the form
//
//	minimize    c·x
//	subject to  A·x {<=,=,>=} b,   x >= 0
//
// It is the reproduction's substitute for the commercial LP engine
// underneath GUROBI: internal/ilp builds a branch-and-bound MILP solver
// on top of the relaxations solved here. Pivots enter the most negative
// reduced cost (Dantzig's rule) and fall back to Bland's rule through
// runs of degenerate pivots, which keeps termination guaranteed.
package lp

import (
	"context"
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // =
)

// Problem is an LP in standard inequality form over x >= 0.
type Problem struct {
	// C is the objective (minimized).
	C []float64
	// A holds one dense coefficient row per constraint.
	A [][]float64
	// Senses holds one direction per constraint.
	Senses []Sense
	// B is the right-hand side.
	B []float64
}

// Status reports the outcome of a solve.
type Status int

// Solver outcomes.
const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective is unbounded below.
	Unbounded
	// IterLimit means the iteration budget was exhausted.
	IterLimit
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const eps = 1e-9

// Validate checks the problem dimensions.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return fmt.Errorf("lp: empty objective")
	}
	if len(p.A) != len(p.B) || len(p.A) != len(p.Senses) {
		return fmt.Errorf("lp: %d rows, %d rhs, %d senses", len(p.A), len(p.B), len(p.Senses))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	return nil
}

// tableau is the working state of the simplex method.
type tableau struct {
	rows, cols int // constraint rows, total columns (vars incl. slack/artificial)
	a          [][]float64
	b          []float64
	basis      []int     // basic variable per row
	nOrig      int       // original variable count
	artStart   int       // first artificial column, or cols if none
	nz         []int     // pivot's buffer of the pivot row's nonzero columns
	y          []float64 // optimize's reduced costs
	c          []float64 // the current phase's objective
	// blandPivots counts the pivots chosen by Bland's rule after a run
	// of degenerate ones.
	blandPivots int
}

// Solver solves LPs, reusing its tableau storage from one solve to the
// next. The zero value is ready to use. A Solver must not be used by
// several goroutines at once.
type Solver struct {
	t      tableau
	cells  []float64
	senses []Sense
}

// Solve runs two-phase simplex with the given iteration limit per phase
// (0 means a generous default).
func Solve(p *Problem, maxIter int) (*Solution, error) {
	return SolveContext(context.Background(), p, maxIter)
}

// SolveContext is Solve with cooperative cancellation: the pivot loop
// polls ctx and, once it is cancelled or past its deadline, abandons the
// solve and reports IterLimit (callers treat the subproblem as
// unresolved, exactly as when the iteration budget runs out).
func SolveContext(ctx context.Context, p *Problem, maxIter int) (*Solution, error) {
	return new(Solver).Solve(ctx, p, maxIter)
}

// Solve is SolveContext on s's storage. The returned Solution shares
// nothing with s.
func (s *Solver) Solve(ctx context.Context, p *Problem, maxIter int) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.C)
	m := len(p.A)
	if maxIter <= 0 {
		maxIter = 50 * (n + m + 10)
	}

	// Count slack and artificial columns. A row with a negative
	// right-hand side is negated, which swaps LE and GE.
	senses := grow(s.senses, m)
	s.senses = senses
	nSlack, nArt := 0, 0
	for i, sense := range p.Senses {
		if p.B[i] < 0 {
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		senses[i] = sense
		switch sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	// Fill one m×cols tableau directly, signs already normalized.
	cols := n + nSlack + nArt
	t := &s.t
	*t = tableau{
		rows: m, cols: cols, nOrig: n, artStart: n + nSlack,
		a: grow(t.a, m), b: grow(t.b, m), basis: grow(t.basis, m),
		nz: t.nz[:0], y: grow(t.y, cols), c: grow(t.c, cols),
	}
	s.cells = grow(s.cells, m*cols)
	cells := s.cells
	clear(cells)
	slackCol := n
	artCol := n + nSlack
	for i := 0; i < m; i++ {
		t.a[i] = cells[i*cols : (i+1)*cols : (i+1)*cols]
		if p.B[i] < 0 {
			for j, v := range p.A[i] {
				t.a[i][j] = -v
			}
			t.b[i] = -p.B[i]
		} else {
			copy(t.a[i], p.A[i])
			t.b[i] = p.B[i]
		}
		switch senses[i] {
		case LE:
			t.a[i][slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.a[i][slackCol] = -1
			slackCol++
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		clear(t.c[:t.artStart])
		for j := t.artStart; j < cols; j++ {
			t.c[j] = 1
		}
		status, obj := t.optimize(ctx, maxIter)
		if status == IterLimit {
			return &Solution{Status: IterLimit}, nil
		}
		if obj > 1e-6 {
			return &Solution{Status: Infeasible}, nil
		}
		// Drive any residual artificial out of the basis.
		for i, bv := range t.basis {
			if bv < t.artStart {
				continue
			}
			pivoted := false
			for j := 0; j < t.artStart; j++ {
				if math.Abs(t.a[i][j]) > eps {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; zero it so it never pivots again.
				for j := range t.a[i] {
					t.a[i][j] = 0
				}
				t.b[i] = 0
				t.basis[i] = -1
			}
		}
		// Drop the artificial columns: no row is basic in one any more,
		// so phase 2 would only ever see them as zeros.
		for i := range t.a {
			t.a[i] = t.a[i][:t.artStart]
		}
		t.cols = t.artStart
	}

	// Phase 2: the real objective over original + slack columns.
	t.c = t.c[:t.cols]
	copy(t.c, p.C)
	clear(t.c[n:])
	status, obj := t.optimize(ctx, maxIter)
	switch status {
	case Unbounded:
		return &Solution{Status: Unbounded}, nil
	case IterLimit:
		return &Solution{Status: IterLimit}, nil
	}
	x := make([]float64, n)
	for i, bv := range t.basis {
		if bv >= 0 && bv < n {
			x[bv] = t.b[i]
		}
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// grow returns buf resliced to length n, reallocated when its capacity
// is short. The contents are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// blandAfter is the number of consecutive degenerate pivots after which
// optimize prices by Bland's rule until the next nondegenerate pivot.
const blandAfter = 20

// optimize runs primal simplex minimizing t.c over the current basis. It
// returns the status and final objective value.
//
// The entering column is the most negative reduced cost (Dantzig's rule,
// lowest index on ties). After blandAfter consecutive degenerate pivots
// (minimum ratio below eps) it is the lowest index with a negative
// reduced cost (Bland's rule), until a pivot moves the objective again.
// That terminates: a nondegenerate pivot strictly lowers the objective,
// so no basis repeats across one, and a run of pivots under Bland's rule
// cannot cycle.
func (t *tableau) optimize(ctx context.Context, maxIter int) (Status, float64) {
	c := t.c
	// Reduced costs r_j = c_j - sum_i c_basis[i] * a[i][j], computed once
	// and then updated by each pivot as one more tableau row.
	y := t.y[:t.cols]
	copy(y, c)
	for i, bv := range t.basis {
		if bv < 0 {
			continue
		}
		cb := c[bv]
		if cb == 0 {
			continue
		}
		for j, v := range t.a[i] {
			if v != 0 {
				y[j] -= cb * v
			}
		}
	}
	degenerate := 0
	for iter := 0; iter < maxIter; iter++ {
		if iter&31 == 0 && ctx.Err() != nil {
			return IterLimit, 0
		}
		enter := -1
		bland := degenerate >= blandAfter
		if bland {
			for j, r := range y {
				if r < -eps {
					enter = j
					break
				}
			}
		} else {
			most := -eps
			for j, r := range y {
				if r < most {
					enter, most = j, r
				}
			}
		}
		if enter == -1 {
			// Optimal: compute objective.
			obj := 0.0
			for i, bv := range t.basis {
				if bv >= 0 {
					obj += c[bv] * t.b[i]
				}
			}
			return Optimal, obj
		}
		// Ratio test (smallest basis index breaks ties, as Bland's rule
		// requires).
		leave := -1
		best := math.Inf(1)
		for i := 0; i < t.rows; i++ {
			if t.a[i][enter] > eps {
				ratio := t.b[i] / t.a[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave == -1 || t.basis[i] < t.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return Unbounded, 0
		}
		if bland {
			t.blandPivots++
		}
		if best < eps {
			degenerate++
		} else {
			degenerate = 0
		}
		f := y[enter]
		t.pivot(leave, enter)
		row := t.a[leave]
		for _, j := range t.nz {
			y[j] -= f * row[j]
		}
	}
	return IterLimit, 0
}

// pivot makes column enter basic in row leave. It scales the pivot row,
// collects its nonzero columns once and eliminates only those from the
// other rows.
//
// Skipping a zero pivot-row entry v (or, in optimize, a zero row entry)
// leaves x where the dense update computed x − f·v. For finite f that is
// x itself when x ≠ 0, and a zero of possibly the other sign when x is
// zero, so only the sign of a zero tableau entry can differ from the
// dense update. No such sign reaches a result: every test on a tableau
// entry or reduced cost compares its magnitude against eps or 0; a zero
// entry never becomes a divisor (pivots and ratios divide by entries
// above eps); it scales nothing nonzero (a zero f skips its row, and
// x + ±0 = x for x ≠ 0); and b changes only through nonzero multipliers
// f, which match the dense update. So b, and with it X, Objective and
// every pivot choice, stay bit-identical.
func (t *tableau) pivot(leave, enter int) {
	row := t.a[leave]
	inv := 1 / row[enter]
	nz := t.nz[:0]
	for j, v := range row {
		v *= inv
		row[j] = v
		if v != 0 {
			nz = append(nz, j)
		}
	}
	t.nz = nz
	t.b[leave] *= inv
	for i, ri := range t.a {
		if i == leave {
			continue
		}
		f := ri[enter]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ri[j] -= f * row[j]
		}
		t.b[i] -= f * t.b[leave]
		if math.Abs(t.b[i]) < eps {
			t.b[i] = 0
		}
	}
	t.basis[leave] = enter
}
