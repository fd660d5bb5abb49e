package lp_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nose/internal/lp"
	"nose/internal/obs"
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
		if sol, err := root.SolveFrom(p, nil); err != nil || sol.Status != lp.Optimal {
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
		pairStats, freshStats := counted(pair), counted(fresh)
		_, firstRefactors := solve(pair, first)
		midSolve := firstRefactors > 1 // beyond the load-time one
		before := pairStats()
		got, pairRefactors := solve(pair, second)
		want, freshRefactors := solve(fresh, second)
		after := pairStats()

		sameSolution(t, name, want, got)
		if err := lp.SameSolverState(fresh, pair); err != nil {
			t.Fatalf("%s (first child refactorized mid-solve: %v): %v", name, midSolve, err)
		}
		saved := int64(1)
		if midSolve {
			saved = 0
		}
		if reuses := after["lp.factor_reuses"] - before["lp.factor_reuses"]; reuses != saved || int64(freshRefactors-pairRefactors) != saved {
			t.Errorf("%s (first child refactorized mid-solve: %v): second child reused %d loads and refactorized %d times, the fresh solver %d times",
				name, midSolve, reuses, pairRefactors, freshRefactors)
		}
		if want, got := freshStats()["lp.pivots"], after["lp.pivots"]-before["lp.pivots"]; got != want {
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

// TestReloadMatchesFreshLoad: a SolveFrom of the problem the solver
// already holds loads only the difference from the last load — the
// fixes it drops and adds, the snapshot's statuses and basis — and must
// end exactly where the same call ends on a new solver: the solution,
// the eta file, the basis, every value, status, bound and reduced cost,
// and the pivot row, bit for bit. The walk is branch and bound's: each
// step fixes one more column below a snapshot an earlier step took, and
// some steps end infeasible, leaving a pivot row computed and never
// applied for the next load to clear.
func TestReloadMatchesFreshLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	reloads, infeasible := 0, 0
	for trial := 0; trial < 12; trial++ {
		p := advisorProblem(100+50*(trial%4), rng)
		s := lp.NewSolver()
		if sol, err := s.SolveFrom(p, nil); err != nil || sol.Status != lp.Optimal {
			t.Fatalf("trial %d: root solve: %v %v", trial, sol, err)
		}
		snaps, fixes := []*lp.Basis{s.Snapshot()}, [][]lp.Fix{nil}
		for step := 0; step < 40; step++ {
			i := rng.Intn(len(snaps))
			fx := append(append([]lp.Fix(nil), fixes[i]...), lp.Fix{Col: rng.Intn(p.NumCols()), Val: float64(rng.Intn(2))})
			if rng.Intn(4) == 0 {
				s.ForgetLoad()
			}
			if lp.Holds(s, p) {
				reloads++
			}
			got, err := s.SolveFrom(p, snaps[i], fx...)
			if err != nil {
				t.Fatal(err)
			}
			fresh := lp.NewSolver()
			want, err := fresh.SolveFrom(p, snaps[i], fx...)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("trial %d step %d", trial, step)
			sameSolution(t, what, want, got)
			if err := lp.SameSolverState(fresh, s); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			switch got.Status {
			case lp.Optimal:
				snaps, fixes = append(snaps, s.Snapshot()), append(fixes, fx)
			case lp.Infeasible:
				infeasible++
			}
		}
	}
	if reloads < 300 || infeasible == 0 {
		t.Errorf("%d of 480 loads were reloads, %d infeasible: the walk did not exercise reload", reloads, infeasible)
	}
	t.Logf("%d reloads, %d infeasible", reloads, infeasible)
}

// TestFactorReuseIsKeyedAndForgettable: the load is reused only for the
// same snapshot on the same problem, and never after ForgetLoad or a
// cold solve.
func TestFactorReuseIsKeyedAndForgettable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := advisorProblem(200, rng)
	s := lp.NewSolver()
	if sol, err := s.SolveFrom(p, nil); err != nil || sol.Status != lp.Optimal {
		t.Fatalf("root solve: %v %v", sol, err)
	}
	snap := s.Snapshot()
	twin := s.Snapshot()
	clone := p.Clone()
	stats := counted(s)
	reuses := func() int64 { return stats()["lp.factor_reuses"] }
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
	if _, err := s.SolveFrom(clone, nil); err != nil {
		t.Fatal(err)
	}
	solve(clone, twin)
	if reuses() != 2 {
		t.Errorf("reuse across a cold solve: %d reuses", reuses())
	}
}

// reuseStep is one solve of solveSequence: its solution, with X copied
// out of the solver, and the snapshot taken after it when it was optimal.
type reuseStep struct {
	sol  lp.Solution
	snap *lp.Basis
}

// solveSequence makes on s the solves branch and bound makes of one
// program p: a cold root, a sibling pair warm-started from the root's
// snapshot under opposite fixes of one column (the second reuses the
// first's load), a cold solve under two fixes, and the warm root of p2,
// which extends p by leading rows, from the root's snapshot.
func solveSequence(t *testing.T, s *lp.Solver, p, p2 *lp.Problem, a, b int) []reuseStep {
	t.Helper()
	var steps []reuseStep
	record := func(sol *lp.Solution, err error) *lp.Basis {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		st := reuseStep{sol: *sol}
		st.sol.X = append([]float64(nil), sol.X...)
		if sol.Status == lp.Optimal {
			st.snap = s.Snapshot()
			if err := lp.SameBasis(lp.CopiedSnapshot(s), st.snap); err != nil {
				t.Fatalf("solve %d: shared signs are not the solver's: %v", len(steps), err)
			}
		}
		steps = append(steps, st)
		return st.snap
	}
	root := record(s.SolveFrom(p, nil))
	if root == nil {
		t.Fatalf("root solve ended %v", steps[0].sol.Status)
	}
	record(s.SolveFrom(p, root, lp.Fix{Col: a, Val: 1}))
	record(s.SolveFrom(p, root, lp.Fix{Col: a, Val: 0}))
	record(s.SolveFrom(p, nil, lp.Fix{Col: a, Val: 0}, lp.Fix{Col: b, Val: 1}))
	record(s.SolveFrom(p2, root))
	return steps
}

// counted binds s's work counters to a registry of its own and returns
// a function that reads them, by name.
func counted(s *lp.Solver) func() map[string]int64 {
	r := obs.NewRegistry()
	s.SetObs(r)
	return func() map[string]int64 { return r.Snapshot().Counters }
}

// TestReusedSolverMatchesFresh: a solver that has already solved a
// larger and a smaller unrelated program — cold, warm from a snapshot
// under fixes, and warm from a prepended root — solves a third exactly
// as a new solver does: every objective, point and snapshot bit for bit,
// the same work counted, and the same state left behind. After Reset it
// solves as a new solver does too, and counts nothing until it is bound
// again. Branch and bound pools its solvers on this. Every snapshot's
// artificial signs, shared or copied, are the ones the solver holds.
func TestReusedSolverMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type program struct {
		p, p2 *lp.Problem
		a, b  int
	}
	build := func(rows int) program {
		p := advisorProblem(rows, rng)
		sol, err := lp.NewSolver().SolveFrom(p, nil)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("%d rows: root solve: %v %v", rows, sol, err)
		}
		return program{p: p, p2: prependRows(rng, p, sol.X, 2, false), a: rng.Intn(p.NumCols()), b: rng.Intn(p.NumCols())}
	}
	large, small, target := build(400), build(60), build(200)

	fresh := lp.NewSolver()
	freshStats := counted(fresh)
	want := solveSequence(t, fresh, target.p, target.p2, target.a, target.b)
	compare := func(what string, s *lp.Solver) func() map[string]int64 {
		t.Helper()
		stats := counted(s)
		got := solveSequence(t, s, target.p, target.p2, target.a, target.b)
		for i := range want {
			step := fmt.Sprintf("%s, solve %d", what, i)
			sameSolution(t, step, &want[i].sol, &got[i].sol)
			if (want[i].snap == nil) != (got[i].snap == nil) {
				t.Fatalf("%s: snapshot taken %v, want %v", step, got[i].snap != nil, want[i].snap != nil)
			}
			if want[i].snap != nil {
				if err := lp.SameBasis(want[i].snap, got[i].snap); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
		}
		if got, want := stats(), freshStats(); !maps.Equal(got, want) {
			t.Errorf("%s: counted %v, a new solver %v", what, got, want)
		}
		if err := lp.SameSolverState(fresh, s); err != nil {
			t.Errorf("%s: %v", what, err)
		}
		return stats
	}

	s := lp.NewSolver()
	stats := counted(s)
	for _, pr := range []program{large, small} {
		solveSequence(t, s, pr.p, pr.p2, pr.a, pr.b)
	}
	if st := stats(); st["lp.warm_starts"] == 0 || st["lp.factor_reuses"] == 0 {
		t.Fatalf("the unrelated solves took no warm path: %+v", st)
	}
	compare("after a larger and a smaller program", s)
	s.Reset()
	stats = compare("after Reset", s)
	s.Reset()
	before := stats()
	if _, err := s.SolveFrom(small.p, nil); err != nil {
		t.Fatal(err)
	}
	if after := stats(); !maps.Equal(after, before) {
		t.Errorf("a solve after Reset counted into the registry bound before it: %v, then %v", before, after)
	}
}

// TestOneMoreRowFitsBuffers: a solver sized by one program also fits
// that program extended by a leading row, as the advisor's phase 2
// extends its phase 1, so a pooled solver carries its buffers from the
// one to the other. The warm solve of the extended program on the
// solver that solved the original allocates under a quarter of what the
// same solve allocates on a new solver, which grows every buffer: what
// is left is the eta file outgrowing the original's, since the new row
// is dense.
func TestOneMoreRowFitsBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := advisorProblem(244, rng)
	s := lp.NewSolver()
	sol, err := s.SolveFrom(p, nil)
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("root solve: %v %v", sol, err)
	}
	snap := s.Snapshot()
	p2 := prependRows(rng, p, sol.X, 1, false)
	if err := p2.Validate(); err != nil {
		t.Fatal(err)
	}
	// solveBytes is what the extended program's warm solve allocates on
	// a solver prepare returns, measured as the executor's allocation
	// test measures: at GOMAXPROCS 1 after a warm-up solve, and the
	// least of three windows, since TotalAlloc counts the whole process
	// and a window in which something else allocates reads high. Each
	// window solves on a solver prepared outside it, since a solve grows
	// a solver's buffers only once.
	solveBytes := func(prepare func() *lp.Solver) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		least := uint64(math.MaxUint64)
		for window := 0; window <= 3; window++ { // window 0 warms up
			s := prepare()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sol, err := s.SolveFrom(p2, snap)
			runtime.ReadMemStats(&after)
			if err != nil || sol.Status != lp.Optimal {
				t.Fatalf("warm solve: %v %v", sol, err)
			}
			if window > 0 {
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
		}
		return least
	}
	reused := solveBytes(func() *lp.Solver {
		s := lp.NewSolver()
		if sol, err := s.SolveFrom(p, nil); err != nil || sol.Status != lp.Optimal {
			t.Fatalf("root solve: %v %v", sol, err)
		}
		return s
	})
	fresh := solveBytes(lp.NewSolver)
	if 4*reused > fresh {
		t.Errorf("the extended program's solve allocates %d B on the solver that solved the original, %d B on a new one", reused, fresh)
	}
	t.Logf("%d B reused, %d B fresh", reused, fresh)
}
