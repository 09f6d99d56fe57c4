package ilp

import (
	"context"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lp"
	"repro/internal/stats"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) → min negated.
	p := &Problem{
		LP: lp.Problem{
			C:      []float64{-10, -6, -4},
			A:      [][]float64{{1, 1, 1}},
			Senses: []lp.Sense{lp.LE},
			B:      []float64{2},
		},
		Binary: []int{0, 1, 2},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !s.Proved {
		t.Fatalf("status = %v proved=%v", s.Status, s.Proved)
	}
	if math.Abs(s.Objective+16) > 1e-6 {
		t.Fatalf("objective = %v, want -16", s.Objective)
	}
	if math.Round(s.X[0]) != 1 || math.Round(s.X[1]) != 1 || math.Round(s.X[2]) != 0 {
		t.Fatalf("x = %v", s.X)
	}
}

func TestFractionalLPForcedInteger(t *testing.T) {
	// LP relaxation optimum is fractional (x=y=0.5); MILP must branch.
	// max x + y s.t. 2x + 2y <= 2? That's integral. Use: max 5x + 4y
	// s.t. 6x + 4y <= 9, x,y binary → LP opt fractional, ILP picks x=0,y=1?
	// 6+4=10 > 9 so both is infeasible; best single: x (5) with 6<=9 ok → -5.
	p := &Problem{
		LP: lp.Problem{
			C:      []float64{-5, -4},
			A:      [][]float64{{6, 4}},
			Senses: []lp.Sense{lp.LE},
			B:      []float64{9},
		},
		Binary: []int{0, 1},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective+5) > 1e-6 {
		t.Fatalf("objective = %v, want -5", s.Objective)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	// x + y = 1.5 with binary x, y has no solution... actually x=1,y=0.5 no.
	// Binary sum can be 0, 1 or 2 only.
	p := &Problem{
		LP: lp.Problem{
			C:      []float64{1, 1},
			A:      [][]float64{{1, 1}},
			Senses: []lp.Sense{lp.EQ},
			B:      []float64{1.5},
		},
		Binary: []int{0, 1},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible && s.Status != NoSolution {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestMixedContinuousAndBinary(t *testing.T) {
	// min t s.t. t >= 3a + 1, t >= 5(1-a): pick a to minimize max → a=1
	// gives t>=4 and t>=0 → t=4; a=0 gives t>=1,t>=5 → 5. Optimal t=4.
	p := &Problem{
		LP: lp.Problem{
			// vars: t, a
			C:      []float64{1, 0},
			A:      [][]float64{{1, -3}, {1, 5}},
			Senses: []lp.Sense{lp.GE, lp.GE},
			B:      []float64{1, 5},
		},
		Binary: []int{1},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective-4) > 1e-6 {
		t.Fatalf("objective = %v, want 4", s.Objective)
	}
	if math.Round(s.X[1]) != 1 {
		t.Fatalf("a = %v", s.X[1])
	}
}

func TestWarmStartPrunes(t *testing.T) {
	// Give the optimal solution as warm start; solver should confirm it.
	p := &Problem{
		LP: lp.Problem{
			C:      []float64{-10, -6, -4},
			A:      [][]float64{{1, 1, 1}},
			Senses: []lp.Sense{lp.LE},
			B:      []float64{2},
		},
		Binary: []int{0, 1, 2},
	}
	s, err := Solve(p, Options{WarmStart: []float64{1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective+16) > 1e-6 {
		t.Fatalf("warm-started solve = %+v", s)
	}
}

func TestWarmStartInfeasibleIgnored(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			C:      []float64{-1, -1},
			A:      [][]float64{{1, 1}},
			Senses: []lp.Sense{lp.LE},
			B:      []float64{1},
		},
		Binary: []int{0, 1},
	}
	// Warm start violates the constraint; must be ignored, not adopted.
	s, err := Solve(p, Options{WarmStart: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective+1) > 1e-6 {
		t.Fatalf("objective = %v, want -1", s.Objective)
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	// A larger knapsack with an immediate deadline: with a warm start the
	// solver must return it rather than nothing.
	n := 20
	c := make([]float64, n)
	row := make([]float64, n)
	bin := make([]int, n)
	warm := make([]float64, n)
	for i := range c {
		c[i] = -float64(i + 1)
		row[i] = 1
		bin[i] = i
	}
	warm[0] = 1
	p := &Problem{
		LP:     lp.Problem{C: c, A: [][]float64{row}, Senses: []lp.Sense{lp.LE}, B: []float64{3}},
		Binary: bin,
	}
	s, err := Solve(p, Options{TimeLimit: time.Nanosecond, WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == NoSolution {
		t.Fatal("warm start lost under time limit")
	}
	if s.Objective > -1+1e-9 {
		t.Fatalf("objective = %v", s.Objective)
	}
}

func TestMaxNodesLimit(t *testing.T) {
	n := 12
	c := make([]float64, n)
	rowA := make([]float64, n)
	bin := make([]int, n)
	for i := range c {
		c[i] = -float64(100 + i%3) // many near-ties → branching
		rowA[i] = float64(2 + i%5)
		bin[i] = i
	}
	p := &Problem{
		LP:     lp.Problem{C: c, A: [][]float64{rowA}, Senses: []lp.Sense{lp.LE}, B: []float64{7}},
		Binary: bin,
	}
	s, err := Solve(p, Options{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes > 2 {
		t.Fatalf("explored %d nodes with MaxNodes=2", s.Nodes)
	}
}

func TestBinaryIndexValidation(t *testing.T) {
	p := &Problem{
		LP:     lp.Problem{C: []float64{1}, A: [][]float64{{1}}, Senses: []lp.Sense{lp.LE}, B: []float64{1}},
		Binary: []int{5},
	}
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("out-of-range binary index accepted")
	}
}

func TestAssignmentProblemProperty(t *testing.T) {
	// Random small assignment problems: ILP result must match brute force.
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 3 // 3 items × 3 slots
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Round(r.Float64()*20) + 1
			}
		}
		// MILP: x[i][j] binary, each item exactly one slot, each slot ≤ 1.
		nv := n * n
		c := make([]float64, nv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c[i*n+j] = cost[i][j]
			}
		}
		var A [][]float64
		var senses []lp.Sense
		var b []float64
		for i := 0; i < n; i++ {
			row := make([]float64, nv)
			for j := 0; j < n; j++ {
				row[i*n+j] = 1
			}
			A = append(A, row)
			senses = append(senses, lp.EQ)
			b = append(b, 1)
		}
		for j := 0; j < n; j++ {
			row := make([]float64, nv)
			for i := 0; i < n; i++ {
				row[i*n+j] = 1
			}
			A = append(A, row)
			senses = append(senses, lp.LE)
			b = append(b, 1)
		}
		bin := make([]int, nv)
		for i := range bin {
			bin[i] = i
		}
		s, err := Solve(&Problem{LP: lp.Problem{C: c, A: A, Senses: senses, B: b}, Binary: bin}, Options{})
		if err != nil || s.Status != Optimal {
			return false
		}
		// Brute force over 3! permutations.
		best := math.Inf(1)
		perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		for _, p := range perms {
			tot := 0.0
			for i, j := range p {
				tot += cost[i][j]
			}
			if tot < best {
				best = tot
			}
		}
		return math.Abs(s.Objective-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// pollLimitCtx is a context whose Err turns non-nil after a fixed number
// of polls: a cancellation that lands at a chosen point of the search
// with no clock involved.
type pollLimitCtx struct {
	context.Context
	polls int
}

func (c *pollLimitCtx) Err() error {
	if c.polls <= 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// TestCancelledRootLPProvesNothing cancels the search inside the root
// LP: the branch-and-bound loop's first poll passes, the simplex's first
// poll fails, so the root node is dropped with its whole tree
// unexplored. Neither a warm-started incumbent nor the empty result may
// then be reported as proved.
func TestCancelledRootLPProvesNothing(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			C:      []float64{-10, -6, -4},
			A:      [][]float64{{1, 1, 1}},
			Senses: []lp.Sense{lp.LE},
			B:      []float64{2},
		},
		Binary: []int{0, 1, 2},
	}
	warm, err := SolveContext(&pollLimitCtx{Context: context.Background(), polls: 1}, p,
		Options{WarmStart: []float64{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Feasible || warm.Proved || warm.Objective != -4 {
		t.Errorf("warm start: status %v proved %v objective %v, want an unproved feasible -4",
			warm.Status, warm.Proved, warm.Objective)
	}
	cold, err := SolveContext(&pollLimitCtx{Context: context.Background(), polls: 1}, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != NoSolution || cold.Proved {
		t.Fatalf("no warm start: status %v proved %v, want no-solution (not infeasible)", cold.Status, cold.Proved)
	}
}

// randomBinaryProgram draws a 0/1 program from seed: 1 + vars%10
// binaries with real costs and 1 + rows%6 LE/GE/EQ rows of small integer
// coefficients and integer right-hand sides, so every binary point meets
// a row exactly or misses it by at least 1. Most rows hold at a random
// binary point x0. When partition is odd, set-partition rows Σ x = 1
// over consecutive blocks of three variables are added too, and x0 meets
// them; they bound every variable at 1, so no box row is added for any
// binary.
func randomBinaryProgram(seed uint64, vars, rows, partition uint8) *Problem {
	r := stats.NewRNG(seed)
	n, m := 1+int(vars)%10, 1+int(rows)%6
	p := &Problem{LP: lp.Problem{C: make([]float64, n)}, Binary: make([]int, n)}
	addRow := func(row []float64, s lp.Sense, rhs float64) {
		p.LP.A = append(p.LP.A, row)
		p.LP.Senses = append(p.LP.Senses, s)
		p.LP.B = append(p.LP.B, rhs)
	}
	x0 := make([]float64, n)
	for j := range p.LP.C {
		p.LP.C[j] = r.NormMS(0, 3)
		p.Binary[j] = j
		x0[j] = float64(r.Intn(2))
	}
	if partition%2 == 1 {
		for lo := 0; lo < n; lo += 3 {
			hi := min(lo+3, n)
			row := make([]float64, n)
			for j := lo; j < hi; j++ {
				row[j] = 1
				x0[j] = 0
			}
			x0[lo+r.Intn(hi-lo)] = 1
			addRow(row, lp.EQ, 1)
		}
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		lhs := 0.0
		for j := range row {
			if r.Intn(3) > 0 {
				row[j] = float64(r.IntRange(-3, 3))
			}
			lhs += row[j] * x0[j]
		}
		s := lp.Sense(r.Intn(3))
		rhs := lhs
		switch {
		case r.Intn(10) == 0:
			rhs = float64(r.IntRange(-4, 4)) // may make the program infeasible
		case s == lp.LE:
			rhs += float64(r.Intn(3))
		case s == lp.GE:
			rhs -= float64(r.Intn(3))
		}
		addRow(row, s, rhs)
	}
	return p
}

// bruteForce enumerates every binary point of p and returns the least
// objective over the feasible ones, or +Inf when there is none.
func bruteForce(p *Problem) float64 {
	n := len(p.LP.C)
	best := math.Inf(1)
	x := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for j := range x {
			x[j] = float64(mask >> j & 1)
		}
		if feasible(&p.LP, p.Binary, x) {
			best = math.Min(best, dot(p.LP.C, x))
		}
	}
	return best
}

// FuzzILPMatchesBruteForce solves random 0/1 programs
// (randomBinaryProgram) with no node or time limit and checks the status
// and objective against enumeration of every binary point: Infeasible
// when no point is feasible, otherwise Optimal at the least objective
// (within 1e-9·max(1, |obj|)) and a feasible binary point that attains
// it. The seeds are a program whose box rows are all implied by its
// set-partition rows, one where no row implies a box (21 nodes), and an
// infeasible one whose relaxation is feasible (3 nodes).
func FuzzILPMatchesBruteForce(f *testing.F) {
	f.Add(uint64(3), uint8(9), uint8(4), uint8(1))
	f.Add(uint64(1), uint8(9), uint8(4), uint8(0))
	f.Add(uint64(1), uint8(9), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, vars, rows, partition uint8) {
		p := randomBinaryProgram(seed, vars, rows, partition)
		got, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(p)
		if math.IsInf(want, 1) {
			if got.Status != Infeasible {
				t.Fatalf("program %+v: status %v, want infeasible", p, got.Status)
			}
			return
		}
		tol := 1e-9 * math.Max(1, math.Abs(want))
		if got.Status != Optimal || math.Abs(got.Objective-want) > tol {
			t.Fatalf("program %+v: status %v objective %v, want optimal %v", p, got.Status, got.Objective, want)
		}
		if !feasible(&p.LP, p.Binary, got.X) || math.Abs(dot(p.LP.C, got.X)-want) > tol {
			t.Fatalf("program %+v: x = %v is infeasible or misses objective %v", p, got.X, want)
		}
	})
}
