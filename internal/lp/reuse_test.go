package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nose/internal/lp"
)

// sameSolution compares two solutions by bit pattern.
func sameSolution(t *testing.T, what string, want, got *lp.Solution) {
	t.Helper()
	if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: %v objective %v, want %v objective %v", what, got.Status, got.Objective, want.Status, want.Objective)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d values, want %d", what, len(got.X), len(want.X))
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("%s: x[%d] = %v, want %v", what, j, got.X[j], want.X[j])
		}
	}
}

// transportProblem is a k×k transportation LP — supplies of at most 3,
// demands of at least 1, unit-capacity routes at random costs. Cutting
// every route's capacity moves each demand onto several routes, one dual
// pivot each: a warm-started solve long enough to refactorize on the way.
func transportProblem(k int, rng *rand.Rand) *lp.Problem {
	p := lp.NewProblem()
	for i := 0; i < k; i++ {
		p.AddRow(math.Inf(-1), 3)
	}
	for j := 0; j < k; j++ {
		p.AddRow(1, math.Inf(1))
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			p.AddCol(1+rng.Float64()*9, 0, 1, lp.Entry{Row: i, Coef: 1}, lp.Entry{Row: k + j, Coef: 1})
		}
	}
	return p
}

// TestFactorReuseMatchesFresh: the second SolveFrom from one snapshot
// on one solver — a branch and bound node's second child — must end
// exactly where the same call ends on a solver that never saw the
// first: the same eta file, basis order, values and solution, bit for
// bit. After a first child of a few pivots the second skips the
// load-time refactorization (one refactor hook call fewer than the
// fresh solver, one FactorReuses more); after a first child long enough
// to refactorize mid-solve the mark is gone and the second refactorizes
// like the fresh solver does.
func TestFactorReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type child struct {
		cols   []int
		lo, hi float64
	}
	// secondChild solves first and then second from the root's snapshot
	// on one solver and second alone on a fresh one, compares the two,
	// and reports whether the first refactorized mid-solve.
	secondChild := func(name string, p *lp.Problem, first, second child) bool {
		root := lp.NewSolver()
		if sol, err := root.Solve(p); err != nil || sol.Status != lp.Optimal {
			t.Fatalf("%s: root solve: %v %v", name, sol, err)
		}
		snap := root.Snapshot()
		refactors := 0
		restore := lp.SetRefactorHook(func(*lp.Solver) { refactors++ })
		defer restore()
		solve := func(s *lp.Solver, c child) (*lp.Solution, int) {
			for _, col := range c.cols {
				p.SetColBounds(col, c.lo, c.hi)
			}
			refactors = 0
			sol, err := s.SolveFrom(p, snap)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, col := range c.cols {
				p.SetColBounds(col, 0, 1)
			}
			return sol, refactors
		}

		pair, fresh := lp.NewSolver(), lp.NewSolver()
		_, firstRefactors := solve(pair, first)
		midSolve := firstRefactors > 1 // beyond the load-time one
		before := pair.Stats()
		got, pairRefactors := solve(pair, second)
		want, freshRefactors := solve(fresh, second)
		after := pair.Stats()

		sameSolution(t, name, want, got)
		if err := lp.SameSolverState(fresh, pair); err != nil {
			t.Fatalf("%s (first child refactorized mid-solve: %v): %v", name, midSolve, err)
		}
		saved := int64(1)
		if midSolve {
			saved = 0
		}
		if reuses := after.FactorReuses - before.FactorReuses; reuses != saved || int64(freshRefactors-pairRefactors) != saved {
			t.Errorf("%s (first child refactorized mid-solve: %v): second child reused %d loads and refactorized %d times, the fresh solver %d times",
				name, midSolve, reuses, pairRefactors, freshRefactors)
		}
		if want, got := fresh.Stats().Pivots, after.Pivots-before.Pivots; got != want {
			t.Errorf("%s: second child took %d pivots, the fresh solver %d", name, got, want)
		}
		return midSolve
	}

	for trial := 0; trial < 16; trial++ {
		p := advisorProblem(200+100*(trial%4), rng)
		first := child{cols: []int{rng.Intn(p.NumCols())}, lo: 1, hi: 1}
		second := child{cols: first.cols}
		if trial%2 == 1 {
			second = child{cols: []int{rng.Intn(p.NumCols())}, lo: 1, hi: 1}
		}
		if secondChild(fmt.Sprintf("advisor %d", trial), p, first, second) {
			t.Errorf("advisor %d: a one-column child refactorized mid-solve; the reuse path did not run", trial)
		}
	}
	p := transportProblem(30, rng)
	all := make([]int, p.NumCols())
	for col := range all {
		all[col] = col
	}
	if !secondChild("transport", p, child{cols: all, hi: 0.15}, child{cols: []int{7}}) {
		t.Error("transport: cutting every capacity did not refactorize mid-solve; the cleared-mark path did not run")
	}
}

// TestFactorReuseIsKeyedAndForgettable: the load is reused only for the
// same snapshot on the same problem, and never after ForgetLoad or a
// cold solve.
func TestFactorReuseIsKeyedAndForgettable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := advisorProblem(200, rng)
	s := lp.NewSolver()
	if sol, err := s.Solve(p); err != nil || sol.Status != lp.Optimal {
		t.Fatalf("root solve: %v %v", sol, err)
	}
	snap := s.Snapshot()
	twin := s.Snapshot()
	clone := p.Clone()
	reuses := func() int64 { return s.Stats().FactorReuses }
	solve := func(p *lp.Problem, from *lp.Basis) {
		t.Helper()
		if _, err := s.SolveFrom(p, from); err != nil {
			t.Fatal(err)
		}
	}

	solve(p, snap)
	solve(p, snap)
	if reuses() != 1 {
		t.Fatalf("same snapshot, same problem: %d reuses, want 1", reuses())
	}
	solve(p, twin) // equal contents, another snapshot
	solve(clone, twin)
	if reuses() != 1 {
		t.Errorf("another snapshot or another problem reused the load: %d reuses", reuses())
	}
	solve(clone, twin)
	if reuses() != 2 {
		t.Errorf("%d reuses, want 2", reuses())
	}
	s.ForgetLoad()
	solve(clone, twin)
	if reuses() != 2 {
		t.Errorf("reuse after ForgetLoad: %d reuses", reuses())
	}
	if _, err := s.Solve(clone); err != nil {
		t.Fatal(err)
	}
	solve(clone, twin)
	if reuses() != 2 {
		t.Errorf("reuse across a cold solve: %d reuses", reuses())
	}
}
