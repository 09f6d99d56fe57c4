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

// cutoff returns a pointer to v, for Options.Cutoff.
func cutoff(v float64) *float64 { return &v }

// TestCutoffPrunes holds the knapsack's optimum, -16: a cutoff at it
// proves that nothing beats it, in no more nodes than the uncut search
// needs to prove it optimal.
func TestCutoffPrunes(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			C:      []float64{-10, -6, -4},
			A:      [][]float64{{1, 1, 1}},
			Senses: []lp.Sense{lp.LE},
			B:      []float64{2},
		},
		Binary: []int{0, 1, 2},
	}
	uncut, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Solve(p, Options{Cutoff: cutoff(-16)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != CutOff || s.X != nil || s.Proved {
		t.Fatalf("solve cut off at the optimum = %+v, want cutoff with no point", s)
	}
	if s.Nodes > uncut.Nodes {
		t.Fatalf("cut solve explored %d nodes, uncut %d", s.Nodes, uncut.Nodes)
	}
}

// TestCutoffBelowOptimum holds an infeasible point's objective, -2,
// below the optimum -1: the solve must report that nothing lies below
// it, neither adopting a point nor calling the program infeasible, and
// a cutoff above the optimum must leave the optimum in reach.
func TestCutoffBelowOptimum(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			C:      []float64{-1, -1},
			A:      [][]float64{{1, 1}},
			Senses: []lp.Sense{lp.LE},
			B:      []float64{1},
		},
		Binary: []int{0, 1},
	}
	s, err := Solve(p, Options{Cutoff: cutoff(-2)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != CutOff || s.X != nil {
		t.Fatalf("cutoff below the optimum: %+v, want cutoff with no point", s)
	}
	s, err = Solve(p, Options{Cutoff: cutoff(-0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective+1) > 1e-6 {
		t.Fatalf("cutoff above the optimum: %+v, want optimal -1", s)
	}
}

// TestTimeLimitUnderCutoff gives a larger knapsack an immediate deadline
// and a cutoff at a held point's objective, -1: the search ends before
// its first node, so it proves nothing and reports no solution, never
// a cutoff, and the caller keeps its point.
func TestTimeLimitUnderCutoff(t *testing.T) {
	n := 20
	c := make([]float64, n)
	row := make([]float64, n)
	bin := make([]int, n)
	for i := range c {
		c[i] = -float64(i + 1)
		row[i] = 1
		bin[i] = i
	}
	p := &Problem{
		LP:     lp.Problem{C: c, A: [][]float64{row}, Senses: []lp.Sense{lp.LE}, B: []float64{3}},
		Binary: bin,
	}
	s, err := Solve(p, Options{TimeLimit: time.Nanosecond, Cutoff: cutoff(-1)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != NoSolution || s.Proved || s.X != nil {
		t.Fatalf("status %v proved %v x %v, want no-solution", s.Status, s.Proved, s.X)
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
// unexplored. The empty result may then be reported neither as proved
// infeasible nor, under a cutoff, as cut off.
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
	cut, err := SolveContext(&pollLimitCtx{Context: context.Background(), polls: 1}, p,
		Options{Cutoff: cutoff(-4)})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Status != NoSolution || cut.Proved || cut.X != nil {
		t.Errorf("cutoff -4: status %v proved %v x %v, want no-solution (not cutoff)", cut.Status, cut.Proved, cut.X)
	}
	uncut, err := SolveContext(&pollLimitCtx{Context: context.Background(), polls: 1}, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if uncut.Status != NoSolution || uncut.Proved {
		t.Fatalf("no cutoff: status %v proved %v, want no-solution (not infeasible)", uncut.Status, uncut.Proved)
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
// (randomBinaryProgram) with no node or time limit, under a cutoff at
// the brute-force optimum plus delta/16 (+Inf when delta is -128, and
// always for an infeasible program), and checks the status and
// objective against enumeration of every binary point: Infeasible when
// no point is feasible, CutOff with no point when the optimum is not
// below the cutoff, otherwise Optimal at the least objective (within
// 1e-9·max(1, |obj|)) and a feasible binary point that attains it and
// lies below the cutoff. The seeds are a program whose box rows are all
// implied by its set-partition rows, one where no row implies a box (21
// nodes uncut), cut at, above and below its optimum, and an infeasible
// one whose relaxation is feasible (3 nodes).
func FuzzILPMatchesBruteForce(f *testing.F) {
	f.Add(uint64(3), uint8(9), uint8(4), uint8(1), int8(math.MinInt8))
	f.Add(uint64(1), uint8(9), uint8(4), uint8(0), int8(0))
	f.Add(uint64(1), uint8(9), uint8(4), uint8(1), int8(-3))
	f.Add(uint64(1), uint8(9), uint8(4), uint8(0), int8(5))
	f.Add(uint64(1), uint8(9), uint8(4), uint8(0), int8(-5))
	f.Fuzz(func(t *testing.T, seed uint64, vars, rows, partition uint8, delta int8) {
		p := randomBinaryProgram(seed, vars, rows, partition)
		want := bruteForce(p)
		cut := math.Inf(1)
		if delta != math.MinInt8 {
			cut = want + float64(delta)/16
		}
		got, err := Solve(p, Options{Cutoff: &cut})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case math.IsInf(want, 1):
			if got.Status != Infeasible {
				t.Fatalf("program %+v: status %v, want infeasible", p, got.Status)
			}
			return
		case want >= cut:
			if got.Status != CutOff || got.X != nil {
				t.Fatalf("program %+v: optimum %v, cutoff %v: status %v x %v, want cutoff with no point",
					p, want, cut, got.Status, got.X)
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
		if got.Objective >= cut || dot(p.LP.C, got.X) >= cut {
			t.Fatalf("program %+v: returned objective %v is not below the cutoff %v", p, got.Objective, cut)
		}
	})
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
