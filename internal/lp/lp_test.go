package lp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	return s
}

func TestSimpleMaximization(t *testing.T) {
	// max 3x + 2y s.t. x+y<=4, x+3y<=6  → min -3x-2y; optimum x=4,y=0, obj -12.
	p := &Problem{
		C:      []float64{-3, -2},
		A:      [][]float64{{1, 1}, {1, 3}},
		Senses: []Sense{LE, LE},
		B:      []float64{4, 6},
	}
	s := solveOK(t, p)
	if math.Abs(s.Objective+12) > 1e-6 {
		t.Fatalf("objective = %v, want -12", s.Objective)
	}
	if math.Abs(s.X[0]-4) > 1e-6 || math.Abs(s.X[1]) > 1e-6 {
		t.Fatalf("x = %v", s.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x+y s.t. x+y = 10, x >= 3 → obj 10.
	p := &Problem{
		C:      []float64{1, 1},
		A:      [][]float64{{1, 1}, {1, 0}},
		Senses: []Sense{EQ, GE},
		B:      []float64{10, 3},
	}
	s := solveOK(t, p)
	if math.Abs(s.Objective-10) > 1e-6 {
		t.Fatalf("objective = %v", s.Objective)
	}
	if s.X[0] < 3-1e-6 {
		t.Fatalf("x[0] = %v violates x>=3", s.X[0])
	}
	if math.Abs(s.X[0]+s.X[1]-10) > 1e-6 {
		t.Fatalf("equality violated: %v", s.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	p := &Problem{
		C:      []float64{1},
		A:      [][]float64{{1}, {1}},
		Senses: []Sense{LE, GE},
		B:      []float64{1, 2},
	}
	s, err := Solve(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x >= 0 unconstrained above.
	p := &Problem{
		C:      []float64{-1},
		A:      [][]float64{{1}},
		Senses: []Sense{GE},
		B:      []float64{0},
	}
	s, err := Solve(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -5  (i.e. x >= 5).
	p := &Problem{
		C:      []float64{1},
		A:      [][]float64{{-1}},
		Senses: []Sense{LE},
		B:      []float64{-5},
	}
	s := solveOK(t, p)
	if math.Abs(s.X[0]-5) > 1e-6 {
		t.Fatalf("x = %v, want 5", s.X[0])
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Degeneracy-prone: multiple constraints active at the optimum.
	p := &Problem{
		C:      []float64{-1, -1},
		A:      [][]float64{{1, 0}, {0, 1}, {1, 1}},
		Senses: []Sense{LE, LE, LE},
		B:      []float64{1, 1, 2},
	}
	s := solveOK(t, p)
	if math.Abs(s.Objective+2) > 1e-6 {
		t.Fatalf("objective = %v, want -2", s.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicate equality rows must not break phase 1.
	p := &Problem{
		C:      []float64{2, 3},
		A:      [][]float64{{1, 1}, {1, 1}, {1, 0}},
		Senses: []Sense{EQ, EQ, LE},
		B:      []float64{4, 4, 3},
	}
	s := solveOK(t, p)
	if math.Abs(s.X[0]+s.X[1]-4) > 1e-6 {
		t.Fatalf("equality violated: %v", s.X)
	}
	if math.Abs(s.Objective-(2*4)) > 1e-6 && s.Objective > 12+1e-6 {
		t.Fatalf("objective = %v", s.Objective)
	}
}

func TestValidateErrors(t *testing.T) {
	if _, err := Solve(&Problem{}, 0); err == nil {
		t.Fatal("empty problem accepted")
	}
	bad := &Problem{C: []float64{1}, A: [][]float64{{1, 2}}, Senses: []Sense{LE}, B: []float64{1}}
	if _, err := Solve(bad, 0); err == nil {
		t.Fatal("ragged row accepted")
	}
	bad2 := &Problem{C: []float64{1}, A: [][]float64{{1}}, Senses: []Sense{LE}, B: []float64{1, 2}}
	if _, err := Solve(bad2, 0); err == nil {
		t.Fatal("mismatched rhs accepted")
	}
}

func TestBoxedAssignmentLP(t *testing.T) {
	// A miniature of the planner's relaxation: 2 items × 2 slots binary
	// assignment, each item in exactly one slot, slot capacities 1,
	// costs chosen so the optimum is integral.
	// Vars: x00 x01 x10 x11.
	p := &Problem{
		C: []float64{1, 5, 5, 1},
		A: [][]float64{
			{1, 1, 0, 0},                                           // item 0 placed once
			{0, 0, 1, 1},                                           // item 1 placed once
			{1, 0, 1, 0},                                           // slot 0 capacity
			{0, 1, 0, 1},                                           // slot 1 capacity
			{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, // x <= 1
		},
		Senses: []Sense{EQ, EQ, LE, LE, LE, LE, LE, LE},
		B:      []float64{1, 1, 1, 1, 1, 1, 1, 1},
	}
	s := solveOK(t, p)
	if math.Abs(s.Objective-2) > 1e-6 {
		t.Fatalf("objective = %v, want 2", s.Objective)
	}
	if math.Abs(s.X[0]-1) > 1e-6 || math.Abs(s.X[3]-1) > 1e-6 {
		t.Fatalf("assignment = %v", s.X)
	}
}

func TestRandomLPsSatisfyConstraintsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := r.IntRange(2, 6)
		m := r.IntRange(1, 6)
		p := &Problem{C: make([]float64, n)}
		for j := range p.C {
			p.C[j] = r.Float64() // non-negative objective → bounded below by 0
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = r.Float64()
			}
			p.A = append(p.A, row)
			p.Senses = append(p.Senses, LE)
			p.B = append(p.B, 1+r.Float64()*10)
		}
		s, err := Solve(p, 0)
		if err != nil || s.Status != Optimal {
			return false
		}
		// Check feasibility of the returned point.
		for i, row := range p.A {
			lhs := 0.0
			for j, c := range row {
				lhs += c * s.X[j]
			}
			if lhs > p.B[i]+1e-6 {
				return false
			}
		}
		for _, x := range s.X {
			if x < -1e-9 {
				return false
			}
		}
		// All-LE with non-negative costs: optimum is x = 0.
		return math.Abs(s.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedSenseRandomFeasibilityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := r.IntRange(2, 5)
		// Build a feasible problem by construction around x0.
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = r.Float64() * 5
		}
		p := &Problem{C: make([]float64, n)}
		for j := range p.C {
			p.C[j] = r.NormMS(0, 1)
		}
		m := r.IntRange(2, 6)
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			lhs := 0.0
			for j := range row {
				row[j] = r.NormMS(0, 1)
				lhs += row[j] * x0[j]
			}
			switch r.Intn(3) {
			case 0:
				p.Senses = append(p.Senses, LE)
				p.B = append(p.B, lhs+r.Float64())
			case 1:
				p.Senses = append(p.Senses, GE)
				p.B = append(p.B, lhs-r.Float64())
			default:
				p.Senses = append(p.Senses, EQ)
				p.B = append(p.B, lhs)
			}
			p.A = append(p.A, row)
		}
		// Box the variables so nothing is unbounded.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.A = append(p.A, row)
			p.Senses = append(p.Senses, LE)
			p.B = append(p.B, 100)
		}
		s, err := Solve(p, 0)
		if err != nil {
			return false
		}
		if s.Status != Optimal {
			return false // x0 is feasible by construction
		}
		for i, row := range p.A {
			lhs := 0.0
			for j, c := range row {
				lhs += c * s.X[j]
			}
			switch p.Senses[i] {
			case LE:
				if lhs > p.B[i]+1e-5 {
					return false
				}
			case GE:
				if lhs < p.B[i]-1e-5 {
					return false
				}
			case EQ:
				if math.Abs(lhs-p.B[i]) > 1e-5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// solveDense is the dense two-phase simplex Solve replaced: it copies
// every row before building the tableau, zeroes the artificial columns
// after phase 1 instead of dropping them, and pivots and prices over
// every column. It is kept as the reference Solve must match bit for
// bit.
func solveDense(p *Problem) *Solution {
	n, m := len(p.C), len(p.A)
	maxIter := 50 * (n + m + 10)
	rows := make([][]float64, m)
	rhs := make([]float64, m)
	senses := make([]Sense, m)
	for i := range p.A {
		rows[i] = append([]float64(nil), p.A[i]...)
		rhs[i] = p.B[i]
		senses[i] = p.Senses[i]
		if rhs[i] < 0 {
			for j := range rows[i] {
				rows[i][j] = -rows[i][j]
			}
			rhs[i] = -rhs[i]
			switch senses[i] {
			case LE:
				senses[i] = GE
			case GE:
				senses[i] = LE
			}
		}
	}
	nSlack, nArt := 0, 0
	for _, s := range senses {
		switch s {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	cols := n + nSlack + nArt
	t := &denseTableau{rows: m, cols: cols, a: make([][]float64, m), b: rhs, basis: make([]int, m)}
	artStart := n + nSlack
	slackCol, artCol := n, artStart
	for i := 0; i < m; i++ {
		t.a[i] = make([]float64, cols)
		copy(t.a[i], rows[i])
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
	if nArt > 0 {
		phase1 := make([]float64, cols)
		for j := artStart; j < cols; j++ {
			phase1[j] = 1
		}
		status, obj := t.optimize(phase1, maxIter)
		if status == IterLimit {
			return &Solution{Status: IterLimit}
		}
		if obj > 1e-6 {
			return &Solution{Status: Infeasible}
		}
		for i, bv := range t.basis {
			if bv < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(t.a[i][j]) > eps {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				for j := range t.a[i] {
					t.a[i][j] = 0
				}
				t.b[i] = 0
				t.basis[i] = -1
			}
		}
		for i := 0; i < m; i++ {
			for j := artStart; j < cols; j++ {
				t.a[i][j] = 0
			}
		}
	}
	phase2 := make([]float64, cols)
	copy(phase2, p.C)
	status, obj := t.optimize(phase2, maxIter)
	if status != Optimal {
		return &Solution{Status: status}
	}
	x := make([]float64, n)
	for i, bv := range t.basis {
		if bv >= 0 && bv < n {
			x[bv] = t.b[i]
		}
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}
}

// denseTableau is solveDense's working state.
type denseTableau struct {
	rows, cols int
	a          [][]float64
	b          []float64
	basis      []int
}

func (t *denseTableau) optimize(c []float64, maxIter int) (Status, float64) {
	y := make([]float64, t.cols)
	for iter := 0; iter < maxIter; iter++ {
		copy(y, c)
		for i, bv := range t.basis {
			if bv < 0 || c[bv] == 0 {
				continue
			}
			cb, row := c[bv], t.a[i]
			for j := 0; j < t.cols; j++ {
				y[j] -= cb * row[j]
			}
		}
		enter := -1
		for j := 0; j < t.cols; j++ {
			if y[j] < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			obj := 0.0
			for i, bv := range t.basis {
				if bv >= 0 {
					obj += c[bv] * t.b[i]
				}
			}
			return Optimal, obj
		}
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
		t.pivot(leave, enter)
	}
	return IterLimit, 0
}

func (t *denseTableau) pivot(leave, enter int) {
	inv := 1 / t.a[leave][enter]
	row := t.a[leave]
	for j := range row {
		row[j] *= inv
	}
	t.b[leave] *= inv
	for i := 0; i < t.rows; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := range ri {
			ri[j] -= f * row[j]
		}
		t.b[i] -= f * t.b[leave]
		if math.Abs(t.b[i]) < eps {
			t.b[i] = 0
		}
	}
	t.basis[leave] = enter
}

// randomLP draws an LP from seed: up to 8 variables and 12 rows of
// mixed LE/GE/EQ senses, sparse coefficients (often small integers, so
// ties and degenerate pivots are common), right-hand sides of either
// sign, redundant copies of equality rows, and, when box is odd, x ≤ 10
// on every variable. Three rows in four hold at a random integer point,
// so many draws are feasible.
func randomLP(seed uint64, vars, rows, box uint8) *Problem {
	r := stats.NewRNG(seed)
	n, m := 1+int(vars)%8, 1+int(rows)%12
	coef := func() float64 {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return r.NormMS(0, 2)
		default:
			return float64(r.IntRange(-3, 3))
		}
	}
	p := &Problem{C: make([]float64, n)}
	x0 := make([]float64, n)
	for j := range p.C {
		p.C[j] = coef()
		x0[j] = float64(r.Intn(4))
	}
	addRow := func(row []float64, s Sense, rhs float64) {
		p.A = append(p.A, row)
		p.Senses = append(p.Senses, s)
		p.B = append(p.B, rhs)
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = coef()
		}
		s := Sense(r.Intn(3))
		lhs := 0.0
		for j, v := range row {
			lhs += v * x0[j]
		}
		var rhs float64
		switch {
		case r.Intn(4) == 0:
			rhs = r.NormMS(1, 3) // may make the LP infeasible
		case s == LE:
			rhs = lhs + float64(r.Intn(3))
		case s == GE:
			rhs = lhs - float64(r.Intn(3))
		default:
			rhs = lhs
		}
		addRow(row, s, rhs)
		if s == EQ && r.Intn(2) == 0 {
			// A redundant copy, scaled by -1 or 2.
			k := []float64{-1, 2}[r.Intn(2)]
			dup := make([]float64, n)
			for j, v := range row {
				dup[j] = k * v
			}
			addRow(dup, EQ, k*rhs)
		}
	}
	if box%2 == 1 {
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			addRow(row, LE, 10)
		}
	}
	return p
}

// FuzzSolveMatchesDense checks Solve against the dense reference
// (solveDense) bit for bit on random LPs (randomLP): the same Status
// and, when optimal, the same Objective and X by math.Float64bits.
func FuzzSolveMatchesDense(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(4), uint8(1))
	f.Add(uint64(2), uint8(6), uint8(9), uint8(0))
	f.Add(uint64(3), uint8(2), uint8(7), uint8(3))
	f.Add(uint64(42), uint8(8), uint8(12), uint8(5))
	f.Add(uint64(7), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, vars, rows, box uint8) {
		p := randomLP(seed, vars, rows, box)
		got, err := Solve(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := solveDense(p)
		same := got.Status == want.Status && len(got.X) == len(want.X) &&
			math.Float64bits(got.Objective) == math.Float64bits(want.Objective)
		for j := range got.X {
			same = same && math.Float64bits(got.X[j]) == math.Float64bits(want.X[j])
		}
		if !same {
			t.Fatalf("problem %+v:\nSolve %v %v %v\ndense %v %v %v",
				p, got.Status, got.Objective, got.X, want.Status, want.Objective, want.X)
		}
	})
}
