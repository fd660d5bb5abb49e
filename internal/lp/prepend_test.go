package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nose/internal/lp"
)

// prependRows extends p, whose optimum is x0, by k leading rows with
// random coefficients and replaces its objective. A loose row holds x0's
// activity inside its bounds (one-sided, ranged or an equality at it); a
// cut row excludes it by at least a half, as a pinned cost row would if
// the bound it pins were below the relaxation's.
func prependRows(rng *rand.Rand, p *lp.Problem, x0 []float64, k int, cut bool) *lp.Problem {
	n := p.NumCols()
	lo, hi := make([]float64, k), make([]float64, k)
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, n)
		act := 0.0
		for j := range a[i] {
			if rng.Float64() < 0.7 {
				a[i][j] = math.Round((rng.Float64()*6-3)*4) / 4
			}
			act += a[i][j] * x0[j]
		}
		switch {
		case cut:
			lo[i], hi[i] = math.Inf(-1), act-0.5-rng.Float64()
		case rng.Intn(4) == 0:
			lo[i], hi[i] = act, act
		case rng.Intn(2) == 0:
			lo[i], hi[i] = math.Inf(-1), act+rng.Float64()
		default:
			lo[i], hi[i] = act-rng.Float64(), act+2*rng.Float64()
		}
	}
	obj := make([]float64, n)
	for j := range obj {
		obj[j] = math.Round((rng.Float64()*6-3)*4) / 4
	}
	return lp.WithLeadingRows(p, lo, hi, a, obj)
}

// checkPrepended solves p2 with SolveFrom from snap (the optimal basis of
// the program it extends by leading rows) on s and cold on a fresh
// solver, and fails unless both end the same way, at objectives within
// 1e-9, and a fresh solver's warm start reproduces s's bit for bit. It
// reports whether s completed on the warm path, which for a new
// objective is primal simplex alone, rather than falling back.
func checkPrepended(t *testing.T, s *lp.Solver, p2 *lp.Problem, snap *lp.Basis, what string) bool {
	t.Helper()
	stats := counted(s)
	before := stats()
	got, err := s.SolveFrom(p2, snap)
	if err != nil {
		t.Fatalf("%s: warm solve: %v", what, err)
	}
	after := stats()
	want, err := lp.NewSolver().SolveFrom(p2, nil)
	if err != nil {
		t.Fatalf("%s: cold solve: %v", what, err)
	}
	again, err := lp.NewSolver().SolveFrom(p2, snap)
	if err != nil {
		t.Fatalf("%s: fresh warm solve: %v", what, err)
	}
	sameSolution(t, what+": fresh solver", got, again)

	warm := after["lp.warm_starts"] - before["lp.warm_starts"]
	fallbacks := after["lp.warm_fallbacks"] - before["lp.warm_fallbacks"]
	if after["lp.solves"]-before["lp.solves"] != 1 || warm+fallbacks != 1 {
		t.Fatalf("%s: one call counted %d solves, %d warm starts, %d fallbacks",
			what, after["lp.solves"]-before["lp.solves"], warm, fallbacks)
	}
	if after["lp.dual_pivots"] != before["lp.dual_pivots"] {
		t.Fatalf("%s: the warm start of the extended program took %d dual pivots", what, after["lp.dual_pivots"]-before["lp.dual_pivots"])
	}
	if got.Status == lp.IterationLimit || want.Status == lp.IterationLimit {
		return warm == 1
	}
	if got.Status != want.Status {
		t.Fatalf("%s: warm status %v, cold status %v (warm start: %v)", what, got.Status, want.Status, warm == 1)
	}
	if got.Status == lp.Optimal && math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
		t.Fatalf("%s: warm objective %v, cold objective %v", what, got.Objective, want.Objective)
	}
	return warm == 1
}

// TestSolvePrependedMatchesCold is the differential test of phase 2's
// root warm start, SolveFrom over a program with prepended rows, on
// random bounded programs: solve one, prepend 1–3 rows and change the
// objective, and the warm solve must end as a cold solve of the
// extended program does. Loose rows keep the old optimum
// feasible and must run on the primal warm path; a cut row makes the
// load primal infeasible and must take the counted cold fallback, never
// report a false Infeasible.
func TestSolvePrependedMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	s := lp.NewSolver()
	var warm, cuts int
	for trial := 0; trial < 400; trial++ {
		p := randomBinaryProblem(rng)
		if trial%2 == 1 {
			p = randomProblem(rng)
		}
		sol, err := s.SolveFrom(p, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != lp.Optimal {
			continue
		}
		snap := s.Snapshot()
		k := 1 + rng.Intn(3)
		cut := trial%5 == 0
		what := fmt.Sprintf("trial %d (%d rows, cut %v)", trial, k, cut)
		switch primal := checkPrepended(t, s, prependRows(rng, p, sol.X, k, cut), snap, what); {
		case primal && cut:
			t.Fatalf("%s: a load that violates the cut row ran on the primal warm path", what)
		case !primal && !cut:
			t.Fatalf("%s: a load that satisfies the new rows fell back cold", what)
		case primal:
			warm++
		default:
			cuts++
		}
	}
	if warm < 200 || cuts < 40 {
		t.Errorf("%d primal warm starts and %d cut fallbacks: too few trials reached each path", warm, cuts)
	}
}

// TestSolvePrependedUnusableSnapshot: SolveFrom from a snapshot that is
// not the basis of p less some leading rows falls back cold and counts
// it, from a nil one it solves cold by request; the snapshot of p itself
// loads as it is.
func TestSolvePrependedUnusableSnapshot(t *testing.T) {
	p := lp.NewProblem()
	r := p.AddRow(1, 1)
	p.AddCol(1, 0, 1, lp.Entry{Row: r, Coef: 1})
	p.AddCol(2, 0, 1, lp.Entry{Row: r, Coef: 1})
	s := lp.NewSolver()
	if sol, err := s.SolveFrom(p, nil); err != nil || sol.Status != lp.Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
	snap := s.Snapshot()
	stats := counted(s)
	solve := func(q *lp.Problem, from *lp.Basis) {
		t.Helper()
		sol, err := s.SolveFrom(q, from)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.Optimal || sol.Objective != 1 {
			t.Fatalf("%v objective %v", sol.Status, sol.Objective)
		}
	}
	// fewer rows than the snapshot, and a column more than it has
	narrow := lp.NewProblem()
	narrow.AddCol(1, 1, 1)
	solve(narrow, snap)
	wide := p.Clone()
	wide.AddCol(0, 0, 1)
	solve(wide, snap)
	solve(p, nil)
	if st := stats(); st["lp.warm_fallbacks"] != 2 || st["lp.cold_solves"] != 1 || st["lp.warm_starts"] != 0 {
		t.Errorf("%d fallbacks, %d cold solves and %d warm starts, want 2, 1 and 0", st["lp.warm_fallbacks"], st["lp.cold_solves"], st["lp.warm_starts"])
	}
	before := stats()
	solve(p, snap)
	if st := stats(); st["lp.warm_starts"] != 1 || st["lp.pivots"] != before["lp.pivots"] {
		t.Errorf("the snapshot of p itself: %d warm starts, %d pivots; want 1 and none", st["lp.warm_starts"], st["lp.pivots"]-before["lp.pivots"])
	}
}

// FuzzSolvePrepended decodes bytes into a small bounded LP, solves it,
// prepends rows decoded from the rest of the input (loose or cutting off
// the optimum) with a new objective, and checks SolveFrom over the
// extended program against a cold solve as TestSolvePrependedMatchesCold
// does.
func FuzzSolvePrepended(f *testing.F) {
	f.Add([]byte{3, 4, 1, 200, 13, 7, 90, 41, 0, 255, 18, 6, 2, 9, 77})
	f.Add([]byte{1, 1, 128, 1, 0})
	f.Add([]byte{8, 2, 0, 0, 0, 0, 9, 9, 9, 9, 77, 140, 210, 3, 16, 3, 255, 1, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		m := 1 + int(next())%5
		n := 1 + int(next())%6
		p := lp.NewProblem()
		for i := 0; i < m; i++ {
			switch next() % 3 {
			case 0:
				p.AddRow(math.Inf(-1), float64(next()%16))
			case 1:
				p.AddRow(-float64(next()%8), math.Inf(1))
			default:
				v := float64(next()%8) - 4
				p.AddRow(v, v)
			}
		}
		for j := 0; j < n; j++ {
			var es []lp.Entry
			for i := 0; i < m; i++ {
				c := float64(int(next())-128) / 32
				if c != 0 && next()%2 == 0 {
					es = append(es, lp.Entry{Row: i, Coef: c})
				}
			}
			p.AddCol(float64(int(next())-128)/16, 0, float64(next()%8), es...)
		}
		s := lp.NewSolver()
		sol, err := s.SolveFrom(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			return
		}
		snap := s.Snapshot()
		k := 1 + int(next())%3
		cut := next()%4 == 0
		rng := rand.New(rand.NewSource(int64(next())<<8 | int64(next())))
		checkPrepended(t, s, prependRows(rng, p, sol.X, k, cut), snap, "fuzz")
	})
}
