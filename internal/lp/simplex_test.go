package lp_test

import (
	"math"
	"math/rand"
	"testing"

	"nose/internal/lp"
)

const eps = 1e-6

func solve(t *testing.T, p *lp.Problem) *lp.Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func wantOptimal(t *testing.T, sol *lp.Solution, obj float64) {
	t.Helper()
	if sol.Status != lp.Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-obj) > eps {
		t.Fatalf("objective = %v, want %v (x=%v)", sol.Objective, obj, sol.X)
	}
}

func inf() float64 { return math.Inf(1) }

func TestTrivialBounds(t *testing.T) {
	// minimize 2x - 3y, 0<=x<=5, 0<=y<=4, no constraints.
	p := lp.NewProblem()
	p.AddCol(2, 0, 5)
	p.AddCol(-3, 0, 4)
	sol := solve(t, p)
	wantOptimal(t, sol, -12)
	if sol.X[0] != 0 || sol.X[1] != 4 {
		t.Errorf("x = %v", sol.X)
	}
}

func TestSimpleLP(t *testing.T) {
	// maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic):
	// optimum (2, 6) value 36, minimized as -36.
	p := lp.NewProblem()
	r1 := p.AddRow(math.Inf(-1), 4)
	r2 := p.AddRow(math.Inf(-1), 12)
	r3 := p.AddRow(math.Inf(-1), 18)
	p.AddCol(-3, 0, inf(), lp.Entry{Row: r1, Coef: 1}, lp.Entry{Row: r3, Coef: 3})
	p.AddCol(-5, 0, inf(), lp.Entry{Row: r2, Coef: 2}, lp.Entry{Row: r3, Coef: 2})
	sol := solve(t, p)
	wantOptimal(t, sol, -36)
	if math.Abs(sol.X[0]-2) > eps || math.Abs(sol.X[1]-6) > eps {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// minimize x + 2y s.t. x + y = 10, x <= 4: optimum x=4, y=6 -> 16.
	p := lp.NewProblem()
	r := p.AddRow(10, 10)
	p.AddCol(1, 0, 4, lp.Entry{Row: r, Coef: 1})
	p.AddCol(2, 0, inf(), lp.Entry{Row: r, Coef: 1})
	wantOptimal(t, solve(t, p), 16)
}

func TestGreaterEqual(t *testing.T) {
	// minimize 3x + 4y s.t. x + 2y >= 14, 3x - y >= 0, x - y <= 2.
	// Optimum x=2, y=6: 2+12=14, 6-6=0, 2-6=-4<=2; objective 30.
	p := lp.NewProblem()
	r1 := p.AddRow(14, inf())
	r2 := p.AddRow(0, inf())
	r3 := p.AddRow(math.Inf(-1), 2)
	p.AddCol(3, 0, inf(), lp.Entry{Row: r1, Coef: 1}, lp.Entry{Row: r2, Coef: 3}, lp.Entry{Row: r3, Coef: 1})
	p.AddCol(4, 0, inf(), lp.Entry{Row: r1, Coef: 2}, lp.Entry{Row: r2, Coef: -1}, lp.Entry{Row: r3, Coef: -1})
	sol := solve(t, p)
	if sol.Status != lp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-30) > 1e-4 {
		t.Errorf("objective = %v, want 30 (x=%v)", sol.Objective, sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x >= 5 and x <= 2 simultaneously.
	p := lp.NewProblem()
	r1 := p.AddRow(5, inf())
	r2 := p.AddRow(math.Inf(-1), 2)
	p.AddCol(1, 0, 10, lp.Entry{Row: r1, Coef: 1}, lp.Entry{Row: r2, Coef: 1})
	sol := solve(t, p)
	if sol.Status != lp.Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// minimize -x with x unbounded above.
	p := lp.NewProblem()
	r := p.AddRow(0, inf())
	p.AddCol(-1, 0, inf(), lp.Entry{Row: r, Coef: 1})
	sol := solve(t, p)
	if sol.Status != lp.Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestRangedRow(t *testing.T) {
	// minimize x + y s.t. 3 <= x + y <= 8: optimum 3.
	p := lp.NewProblem()
	r := p.AddRow(3, 8)
	p.AddCol(1, 0, inf(), lp.Entry{Row: r, Coef: 1})
	p.AddCol(1, 0, inf(), lp.Entry{Row: r, Coef: 1})
	wantOptimal(t, solve(t, p), 3)
}

func TestNegativeLowerBounds(t *testing.T) {
	// minimize x s.t. x + y = 0, -3 <= x, 0 <= y <= 7: optimum x=-3.
	p := lp.NewProblem()
	r := p.AddRow(0, 0)
	p.AddCol(1, -3, inf(), lp.Entry{Row: r, Coef: 1})
	p.AddCol(0, 0, 7, lp.Entry{Row: r, Coef: 1})
	wantOptimal(t, solve(t, p), -3)
}

func TestFreeColumn(t *testing.T) {
	// minimize x + y, x free, y in [0, 1], s.t. x − y ≥ −2: x starts
	// parked at zero and must enter downward; optimum x = −2, y = 0.
	p := lp.NewProblem()
	r := p.AddRow(-2, inf())
	p.AddCol(1, math.Inf(-1), inf(), lp.Entry{Row: r, Coef: 1})
	p.AddCol(1, 0, 1, lp.Entry{Row: r, Coef: -1})
	wantOptimal(t, solve(t, p), -2)
}

func TestFixedVariable(t *testing.T) {
	// y fixed at 2; minimize x s.t. x + y >= 5 -> x = 3.
	p := lp.NewProblem()
	r := p.AddRow(5, inf())
	p.AddCol(1, 0, inf(), lp.Entry{Row: r, Coef: 1})
	p.AddCol(0, 2, 2, lp.Entry{Row: r, Coef: 1})
	wantOptimal(t, solve(t, p), 3)
}

func TestSetPartitionRelaxation(t *testing.T) {
	// The NoSE BIP shape: choose one plan per query; plans imply
	// indexes. Plan a costs 1 using index I, plan b costs 10 with no
	// index. Index I costs 5 (update maintenance). With weight on the
	// query, the relaxation should pick plan a + index when cheap.
	p := lp.NewProblem()
	rChoose := p.AddRow(1, 1)          // ya + yb = 1
	rLink := p.AddRow(math.Inf(-1), 0) // ya - xI <= 0
	ya := p.AddCol(1, 0, 1, lp.Entry{Row: rChoose, Coef: 1}, lp.Entry{Row: rLink, Coef: 1})
	p.AddCol(10, 0, 1, lp.Entry{Row: rChoose, Coef: 1})
	xi := p.AddCol(5, 0, 1, lp.Entry{Row: rLink, Coef: -1})
	sol := solve(t, p)
	wantOptimal(t, sol, 6)
	if math.Abs(sol.X[ya]-1) > eps || math.Abs(sol.X[xi]-1) > eps {
		t.Errorf("x = %v", sol.X)
	}

	// Make the index expensive; the relaxation switches plans.
	p.SetObj(xi, 100)
	sol = solve(t, p)
	wantOptimal(t, sol, 10)
}

func TestDegenerateProblem(t *testing.T) {
	// Multiple redundant constraints intersecting at the optimum;
	// exercises the anti-cycling path.
	p := lp.NewProblem()
	rows := make([]int, 6)
	for i := range rows {
		rows[i] = p.AddRow(math.Inf(-1), 1)
	}
	entries := func(c float64) []lp.Entry {
		es := make([]lp.Entry, len(rows))
		for i, r := range rows {
			es[i] = lp.Entry{Row: r, Coef: c}
		}
		return es
	}
	p.AddCol(-1, 0, inf(), entries(1)...)
	wantOptimal(t, solve(t, p), -1)
}

func TestRandomLPsAgainstBruteForce(t *testing.T) {
	// Random small LPs with box bounds solved by the simplex must
	// match a dense vertex-enumeration check within tolerance. With
	// all variables boxed in [0, U] and <= rows, the optimum is at a
	// vertex of the box polytope; instead of enumerating vertices we
	// verify feasibility and compare against a fine grid search lower
	// bound, which is sufficient to catch gross errors.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nv := 2 + rng.Intn(2) // 2-3 variables for the grid to stay fast
		nr := 1 + rng.Intn(3)
		p := lp.NewProblem()
		type rowDef struct {
			hi   float64
			coef []float64
		}
		rows := make([]rowDef, nr)
		for i := 0; i < nr; i++ {
			rows[i].hi = 1 + 4*rng.Float64()
			rows[i].coef = make([]float64, nv)
			p.AddRow(math.Inf(-1), rows[i].hi)
		}
		objs := make([]float64, nv)
		for j := 0; j < nv; j++ {
			objs[j] = rng.Float64()*4 - 2
			var es []lp.Entry
			for i := 0; i < nr; i++ {
				c := rng.Float64() * 2
				rows[i].coef[j] = c
				if c != 0 {
					es = append(es, lp.Entry{Row: i, Coef: c})
				}
			}
			p.AddCol(objs[j], 0, 2, es...)
		}
		sol := solve(t, p)
		if sol.Status != lp.Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		// Feasibility of the reported solution.
		for i, rd := range rows {
			act := 0.0
			for j := 0; j < nv; j++ {
				act += rd.coef[j] * sol.X[j]
			}
			if act > rd.hi+1e-5 {
				t.Fatalf("trial %d: row %d violated: %v > %v", trial, i, act, rd.hi)
			}
		}
		// Grid search upper bound on the minimum.
		const steps = 8
		bestGrid := math.Inf(1)
		var walk func(j int, x []float64)
		walk = func(j int, x []float64) {
			if j == nv {
				for _, rd := range rows {
					act := 0.0
					for k := 0; k < nv; k++ {
						act += rd.coef[k] * x[k]
					}
					if act > rd.hi {
						return
					}
				}
				v := 0.0
				for k := 0; k < nv; k++ {
					v += objs[k] * x[k]
				}
				if v < bestGrid {
					bestGrid = v
				}
				return
			}
			for s := 0; s <= steps; s++ {
				x[j] = 2 * float64(s) / steps
				walk(j+1, x)
			}
		}
		walk(0, make([]float64, nv))
		if sol.Objective > bestGrid+1e-5 {
			t.Fatalf("trial %d: simplex %v worse than grid %v", trial, sol.Objective, bestGrid)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	p := lp.NewProblem()
	p.AddRow(5, 1) // lo > hi
	if _, err := p.Solve(); err == nil {
		t.Error("expected validation error for inverted row bounds")
	}
	p2 := lp.NewProblem()
	p2.AddCol(1, 3, 1) // lo > hi
	if _, err := p2.Solve(); err == nil {
		t.Error("expected validation error for inverted col bounds")
	}
	p3 := lp.NewProblem()
	p3.AddCol(1, 0, 1, lp.Entry{Row: 2, Coef: 1})
	if _, err := p3.Solve(); err == nil {
		t.Error("expected validation error for bad row index")
	}
	p4 := lp.NewProblem()
	p4.AddCol(1, 0, 1)
	s := lp.NewSolver()
	for _, col := range []int{-1, 1} {
		if _, err := s.SolveFrom(p4, nil, lp.Fix{Col: col}); err == nil {
			t.Errorf("expected validation error for a fix of column %d of 1", col)
		}
		if _, err := s.SolveFrom(p4, nil, lp.Fix{Col: col}); err == nil {
			t.Errorf("expected validation error for a warm fix of column %d of 1", col)
		}
	}
}

// TestValidateAfterChange: Validate checks a problem once and then
// returns at once, so a change the test helpers make after a successful
// solve must drop that check: an inverted column bound, a NaN or an
// infinite objective set on a validated problem is still reported, by
// Validate and by every solve path, and the problem solves again once
// the change is undone.
func TestValidateAfterChange(t *testing.T) {
	for _, c := range []struct {
		name         string
		change, undo func(p *lp.Problem)
	}{
		{"inverted col bounds", func(p *lp.Problem) { p.SetColBounds(1, 2, 1) }, func(p *lp.Problem) { p.SetColBounds(1, 0, 1) }},
		{"NaN objective", func(p *lp.Problem) { p.SetObj(0, math.NaN()) }, func(p *lp.Problem) { p.SetObj(0, 1) }},
		{"infinite objective", func(p *lp.Problem) { p.SetObj(0, math.Inf(-1)) }, func(p *lp.Problem) { p.SetObj(0, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := lp.NewProblem()
			r := p.AddRow(1, inf())
			p.AddCol(1, 0, 1, lp.Entry{Row: r, Coef: 1})
			p.AddCol(2, 0, 1, lp.Entry{Row: r, Coef: 1})
			s := lp.NewSolver()
			sol, err := s.SolveFrom(p, nil)
			if err != nil || sol.Status != lp.Optimal {
				t.Fatalf("before the change: %v, %v", sol, err)
			}
			snap := s.Snapshot()
			c.change(p)
			if err := p.Validate(); err == nil {
				t.Error("Validate accepts the changed problem")
			}
			if _, err := s.SolveFrom(p, nil); err == nil {
				t.Error("Solve accepts the changed problem")
			}
			if _, err := s.SolveFrom(p, snap); err == nil {
				t.Error("SolveFrom accepts the changed problem")
			}
			c.undo(p)
			if sol, err := s.SolveFrom(p, nil); err != nil || sol.Status != lp.Optimal || sol.Objective != 1 {
				t.Errorf("after the change is undone: %+v, %v", sol, err)
			}
		})
	}
}

func TestEmptyProblem(t *testing.T) {
	p := lp.NewProblem()
	sol := solve(t, p)
	if sol.Status != lp.Optimal || sol.Objective != 0 {
		t.Errorf("empty problem: %v obj %v", sol.Status, sol.Objective)
	}
}
