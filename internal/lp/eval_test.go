package lp_test

import (
	"math"
	"math/rand"
	"testing"

	"nose/internal/lp"
)

// TestEvalMatchesFixedSolves: Eval on a 0/1 point against the two ways
// branch and bound used to get the same answer — a cold solve and a
// SolveFrom the relaxation's basis, both with every column fixed at the
// point. Status must agree, and for a feasible point Objective and X
// must be equal with ==, not within a tolerance. Rows are drawn around
// the point's own activity: slack, tight, violated by less than the
// feasibility tolerance (still feasible) and by far more (infeasible).
// Violations near the tolerance itself are left out, because there the
// two solves already disagree with each other: the cold path accepts a
// sum of violations up to 1e-6, and the dual path measures a violation
// on whichever variable is basic in the row, scaled by the basis.
func TestEvalMatchesFixedSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	feasible, infeasible, within := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(9)
		x := make([]float64, n)
		for j := range x {
			x[j] = float64(rng.Intn(2))
		}
		// Quarter-valued coefficients keep every activity exact.
		m := 1 + rng.Intn(6)
		coef := make([][]float64, m)
		act := make([]float64, m)
		for i := range coef {
			coef[i] = make([]float64, n)
			for j := range coef[i] {
				if rng.Intn(3) > 0 {
					coef[i][j] = float64(rng.Intn(17)-8) / 4
					act[i] += coef[i][j] * x[j]
				}
			}
		}
		p := lp.NewProblem()
		broken := false
		for i := 0; i < m; i++ {
			lo, hi := math.Inf(-1), math.Inf(1)
			switch edge := []float64{1, 0, -1e-9, -0.5}[rng.Intn(4)]; rng.Intn(3) {
			case 0:
				hi = act[i] + edge
			case 1:
				lo = act[i] - edge
			default:
				lo, hi = act[i]-math.Abs(edge), act[i]+math.Abs(edge)
				if edge == -0.5 { // an equality the point misses
					lo, hi = act[i]+0.5, act[i]+0.5
				}
			}
			if hi < act[i]-1e-7 || lo > act[i]+1e-7 {
				broken = true
			} else if hi < act[i] || lo > act[i] {
				within++
			}
			p.AddRow(lo, hi)
		}
		for j := 0; j < n; j++ {
			var es []lp.Entry
			for i := 0; i < m; i++ {
				if coef[i][j] != 0 {
					es = append(es, lp.Entry{Row: i, Coef: coef[i][j]})
				}
			}
			p.AddCol(rng.Float64()*10-3, 0, 1, es...)
		}

		// The relaxation's basis, when it has one, is the warm start.
		relax := lp.NewSolver()
		var snap *lp.Basis
		if sol, err := relax.SolveFrom(p, nil); err != nil {
			t.Fatal(err)
		} else if sol.Status == lp.Optimal {
			snap = relax.Snapshot()
		}
		for j, v := range x {
			p.SetColBounds(j, v, v)
		}
		obj, ok := p.Eval(x, make([]float64, m))
		if ok == broken {
			t.Fatalf("trial %d: Eval says feasible=%v of a point built with broken=%v", trial, ok, broken)
		}
		if ok {
			feasible++
		} else {
			infeasible++
		}
		check := func(how string, sol *lp.Solution, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, how, err)
			}
			if (sol.Status == lp.Optimal) != ok || (sol.Status != lp.Optimal && sol.Status != lp.Infeasible) {
				t.Fatalf("trial %d %s: status %v, Eval feasible=%v", trial, how, sol.Status, ok)
			}
			if !ok {
				return
			}
			if sol.Objective != obj {
				t.Errorf("trial %d %s: objective %v, Eval %v", trial, how, sol.Objective, obj)
			}
			for j := range x {
				if sol.X[j] != x[j] {
					t.Errorf("trial %d %s: x[%d] = %v, the point has %v", trial, how, j, sol.X[j], x[j])
				}
			}
		}
		sol, err := lp.NewSolver().SolveFrom(p, nil)
		check("cold", sol, err)
		if snap != nil {
			sol, err = lp.NewSolver().SolveFrom(p, snap)
			check("warm", sol, err)
		}
	}
	if feasible < 30 || infeasible < 30 || within < 30 {
		t.Errorf("%d feasible and %d infeasible points, %d rows violated within tolerance: the draw is lopsided", feasible, infeasible, within)
	}
}

// TestEvalChecksColumnBounds: a point outside a column's bounds is
// infeasible whatever the rows say.
func TestEvalChecksColumnBounds(t *testing.T) {
	p := lp.NewProblem()
	r := p.AddRow(math.Inf(-1), 10)
	p.AddCol(2, 0, 1, lp.Entry{Row: r, Coef: 1})
	act := make([]float64, 1)
	if obj, ok := p.Eval([]float64{1}, act); !ok || obj != 2 {
		t.Errorf("x=1: objective %v feasible %v, want 2 true", obj, ok)
	}
	if _, ok := p.Eval([]float64{2}, act); ok {
		t.Error("x=2 lies outside [0, 1] yet evaluates feasible")
	}
}

// TestEvalDoesNotAllocate: the LP path paid a Solution and its X per
// fixed program; evaluating one into the caller's scratch pays nothing.
func TestEvalDoesNotAllocate(t *testing.T) {
	p := advisorProblem(200, rand.New(rand.NewSource(5)))
	x, act := make([]float64, p.NumCols()), make([]float64, p.NumRows())
	if allocs := testing.AllocsPerRun(20, func() { p.Eval(x, act) }); allocs != 0 {
		t.Errorf("Eval allocates %v times per call", allocs)
	}
}
