package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nose/internal/lp"
)

// quarter draws a multiple of 0.25 in [lo, hi], so that row activities
// at the starting point are exact and a row the generator means to be
// satisfied there is satisfied bit for bit.
func quarter(rng *rand.Rand, lo, hi float64) float64 {
	return lo + float64(rng.Intn(int((hi-lo)*4)+1))/4
}

// crashProblem builds a random bounded LP around the point a cold solve
// starts from (every column at its lower bound, else its upper bound,
// else zero). Each row is satisfied there — one-sided, ranged, an
// equality at its activity, or free — unless a draw below violated
// moves its bounds at least 0.25 off that activity (a free row then
// becomes an equality). Coefficients and bounds are multiples of 0.25.
func crashProblem(rng *rand.Rand, violated float64) *lp.Problem {
	m := 1 + rng.Intn(8)
	n := 1 + rng.Intn(10)
	type col struct {
		obj, lo, hi float64
		es          []lp.Entry
	}
	cols := make([]col, n)
	act := make([]float64, m)
	for j := range cols {
		c := &cols[j]
		obj := quarter(rng, -3, 3)
		var start float64
		switch rng.Intn(6) {
		case 0:
			c.obj, c.lo, c.hi = obj, 0, 1
		case 1:
			c.obj, c.lo, c.hi = obj, quarter(rng, -2, 0), quarter(rng, 0.25, 2)
		case 2:
			v := quarter(rng, -1, 1)
			c.obj, c.lo, c.hi = obj, v, v
		case 3:
			c.obj, c.lo, c.hi = math.Abs(obj), 0, math.Inf(1)
		case 4:
			// Only an upper bound: the start is that bound, and a
			// nonpositive objective keeps the column from running off.
			c.obj, c.lo, c.hi = -math.Abs(obj), math.Inf(-1), quarter(rng, -1, 2)
			start = c.hi
		default:
			c.obj, c.lo, c.hi = obj, 0, quarter(rng, 0.25, 3)
		}
		if !math.IsInf(c.lo, -1) {
			start = c.lo
		}
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.6 {
				coef := quarter(rng, -2, 2)
				if coef == 0 {
					continue
				}
				c.es = append(c.es, lp.Entry{Row: i, Coef: coef})
				act[i] += coef * start
			}
		}
	}
	p := lp.NewProblem()
	for i := 0; i < m; i++ {
		a := act[i]
		r := quarter(rng, 0, 2)
		off := 0.25 + quarter(rng, 0, 2) // a violated row misses a by this
		bad := rng.Float64() < violated
		switch kind := rng.Intn(5); {
		case kind == 0 && !bad:
			p.AddRow(math.Inf(-1), a+r)
		case kind == 0:
			p.AddRow(math.Inf(-1), a-off)
		case kind == 1 && !bad:
			p.AddRow(a-r, math.Inf(1))
		case kind == 1:
			p.AddRow(a+off, math.Inf(1))
		case kind == 2 && !bad:
			p.AddRow(a-r, a+quarter(rng, 0, 2))
		case kind == 2:
			p.AddRow(a+off, a+off+r)
		case kind == 3 && !bad:
			p.AddRow(a, a)
		case kind == 4 && !bad:
			p.AddRow(math.Inf(-1), math.Inf(1))
		default:
			p.AddRow(a-off, a-off)
		}
	}
	for _, c := range cols {
		p.AddCol(c.obj, c.lo, c.hi, c.es...)
	}
	return p
}

// sameObjective fails unless a and b end the same way and, when optimal,
// at objectives within 1e-9 (relative to 1 + |b|). It reports false when
// either stopped at its iteration limit, which proves nothing.
func sameObjective(t *testing.T, what string, got, want *lp.Solution) bool {
	t.Helper()
	if got.Status == lp.IterationLimit || want.Status == lp.IterationLimit {
		return false
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", what, got.Status, want.Status)
	}
	if got.Status == lp.Optimal && math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
		t.Fatalf("%s: objective %v, want %v", what, got.Objective, want.Objective)
	}
	return true
}

// crashSolve solves p cold on a fresh solver and with the dense oracle,
// which starts from the all-artificial basis, and checks that they agree.
// It returns the solver, its solution and the phase-1 pivots it took.
func crashSolve(t *testing.T, p *lp.Problem, what string) (*lp.Solver, *lp.Solution, int64) {
	t.Helper()
	s := lp.NewSolver()
	stats := counted(s)
	got, err := s.SolveFrom(p, nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := lp.SolveDense(p)
	if err != nil {
		t.Fatalf("%s: dense: %v", what, err)
	}
	sameObjective(t, what+" against the dense oracle", got, want)
	return s, got, stats()["lp.phase1_pivots"]
}

// TestCrashAllRowsSatisfied: when the starting point satisfies every
// row, the crash basis is all slacks, phase 1 never runs, and the
// optimum is the oracle's.
func TestCrashAllRowsSatisfied(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	optimal := 0
	for trial := 0; trial < 400; trial++ {
		what := fmt.Sprintf("trial %d", trial)
		_, sol, phase1 := crashSolve(t, crashProblem(rng, 0), what)
		if phase1 != 0 {
			t.Fatalf("%s: %d phase-1 pivots from a feasible start", what, phase1)
		}
		if sol.Status == lp.Optimal {
			optimal++
		}
	}
	if optimal < 200 {
		t.Errorf("only %d of 400 trials optimal", optimal)
	}
}

// TestCrashEqualityRows: an equality row is satisfied at the start only
// at exactly its right-hand side; zero and nonzero right-hand sides take
// the slack (fixed, basic) or the artificial accordingly, and both end
// where the oracle does.
func TestCrashEqualityRows(t *testing.T) {
	// x0 − x1 = 0 holds at x = 0; x0 + x1 + x2 = 3 does not. minimize
	// x0 + 2·x1 + 4·x2 over [0, 2]³: x0 = x1 = 1.5, objective 4.5.
	p := lp.NewProblem()
	zero := p.AddRow(0, 0)
	three := p.AddRow(3, 3)
	p.AddCol(1, 0, 2, lp.Entry{Row: zero, Coef: 1}, lp.Entry{Row: three, Coef: 1})
	p.AddCol(2, 0, 2, lp.Entry{Row: zero, Coef: -1}, lp.Entry{Row: three, Coef: 1})
	p.AddCol(4, 0, 2, lp.Entry{Row: three, Coef: 1})
	_, sol, phase1 := crashSolve(t, p, "two equalities")
	wantOptimal(t, sol, 4.5)
	if phase1 == 0 {
		t.Errorf("the violated equality x0 + x1 + x2 = 3 took no phase-1 pivot")
	}

	// The same rows moved to nonzero right-hand sides the start meets:
	// every column starts at 1, so both rows hold there.
	q := lp.NewProblem()
	one := q.AddRow(1, 1)
	sum := q.AddRow(3, 3)
	q.AddCol(1, 1, 2, lp.Entry{Row: one, Coef: 2}, lp.Entry{Row: sum, Coef: 1})
	q.AddCol(2, 1, 2, lp.Entry{Row: one, Coef: -1}, lp.Entry{Row: sum, Coef: 1})
	q.AddCol(4, 1, 2, lp.Entry{Row: sum, Coef: 1})
	_, sol, phase1 = crashSolve(t, q, "satisfied nonzero equalities")
	wantOptimal(t, sol, 7)
	if phase1 != 0 {
		t.Errorf("%d phase-1 pivots with both equalities met at the start", phase1)
	}

	// Random programs of equality rows only: crashProblem's columns, and
	// every row an equality at its starting activity, shifted by a
	// nonzero quarter in half the rows.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		p := crashProblem(rng, 0)
		act := make([]float64, p.NumRows())
		for j := 0; j < p.NumCols(); j++ {
			start, hi := p.ColBounds(j)
			if math.IsInf(start, -1) {
				start = hi
			}
			for _, e := range p.ColEntries(j) {
				act[e.Row] += e.Coef * start
			}
		}
		eq := lp.NewProblem()
		for _, a := range act {
			if rng.Intn(2) == 0 {
				a += quarter(rng, 0.25, 2) * float64(1-2*rng.Intn(2))
			}
			eq.AddRow(a, a)
		}
		for j := 0; j < p.NumCols(); j++ {
			lo, hi := p.ColBounds(j)
			eq.AddCol(p.Obj(j), lo, hi, p.ColEntries(j)...)
		}
		crashSolve(t, eq, fmt.Sprintf("equality trial %d", trial))
	}
}

// TestCrashFreeRows: a free row never needs an artificial. Free rows
// alone leave phase 1 idle; beside a violated row they stay basic on
// their slacks while phase 1 repairs it, and the optimum is the
// oracle's.
func TestCrashFreeRows(t *testing.T) {
	p := lp.NewProblem()
	f1 := p.AddRow(math.Inf(-1), math.Inf(1))
	f2 := p.AddRow(math.Inf(-1), math.Inf(1))
	p.AddCol(-1, 0, 2, lp.Entry{Row: f1, Coef: 3}, lp.Entry{Row: f2, Coef: -1})
	p.AddCol(1, -1, 1, lp.Entry{Row: f1, Coef: 1})
	_, sol, phase1 := crashSolve(t, p, "free rows only")
	wantOptimal(t, sol, -3)
	if phase1 != 0 {
		t.Errorf("%d phase-1 pivots with only free rows", phase1)
	}

	need := p.AddRow(2, math.Inf(1)) // x0 + x1 ≥ 2, violated at (0, −1)
	p.AddEntry(0, need, 1)
	p.AddEntry(1, need, 1)
	_, sol, phase1 = crashSolve(t, p, "free rows and a violated row")
	wantOptimal(t, sol, -2)
	if phase1 == 0 {
		t.Errorf("the violated row x0 + x1 ≥ 2 took no phase-1 pivot")
	}
}

// TestCrashInfeasible: a program with no feasible point is reported
// Infeasible from the crash basis, whether every other row starts
// satisfied or some are violated too.
func TestCrashInfeasible(t *testing.T) {
	p := lp.NewProblem()
	link := p.AddRow(math.Inf(-1), 0) // x0 − x1 ≤ 0, met at the start
	both := p.AddRow(5, math.Inf(1))  // x0 + x1 ≥ 5 over [0, 1]²
	p.AddCol(1, 0, 1, lp.Entry{Row: link, Coef: 1}, lp.Entry{Row: both, Coef: 1})
	p.AddCol(1, 0, 1, lp.Entry{Row: link, Coef: -1}, lp.Entry{Row: both, Coef: 1})
	if _, sol, _ := crashSolve(t, p, "x0 + x1 ≥ 5"); sol.Status != lp.Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}

	rng := rand.New(rand.NewSource(30))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		q := crashProblem(rng, 0.3*float64(trial%2))
		// One more row, Σ x_j ≥ 1 + Σ max(|lo_j|, |hi_j|), which no point
		// within bounded columns reaches.
		reach := 1.0
		for j := 0; j < q.NumCols(); j++ {
			lo, hi := q.ColBounds(j)
			reach += math.Max(math.Abs(lo), math.Abs(hi))
		}
		if math.IsInf(reach, 1) {
			continue
		}
		row := q.AddRow(reach, math.Inf(1))
		for j := 0; j < q.NumCols(); j++ {
			q.AddEntry(j, row, 1)
		}
		what := fmt.Sprintf("trial %d", trial)
		if _, sol, _ := crashSolve(t, q, what); sol.Status != lp.Infeasible {
			t.Fatalf("%s: status %v, want infeasible", what, sol.Status)
		}
		checked++
	}
	if checked < 40 {
		t.Errorf("only %d of 300 trials had bounded columns", checked)
	}
}

// TestCrashSnapshotWarmStarts: the snapshot of a crash-started solve —
// slacks basic on the rows the start met, their artificials pinned at
// zero under sign +1 — is a basis SolveFrom loads as it is. SolveFrom
// from it on the same program, after a bound fix, and after loose
// leading rows, each end at the cold objective within 1e-9 without
// falling back.
func TestCrashSnapshotWarmStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		p := crashProblem(rng, 0.3)
		what := fmt.Sprintf("trial %d", trial)
		s, cold, _ := crashSolve(t, p, what)
		if cold.Status != lp.Optimal {
			continue
		}
		snap := s.Snapshot()

		w := lp.NewSolver()
		wStats := counted(w)
		got, err := w.SolveFrom(p, snap)
		if err != nil {
			t.Fatal(err)
		}
		sameObjective(t, what+": SolveFrom the solved program", got, cold)
		if st := wStats(); st["lp.warm_fallbacks"] != 0 {
			t.Fatalf("%s: reloading the optimum fell back cold", what)
		}

		col := rng.Intn(p.NumCols())
		lo, hi := p.ColBounds(col)
		if !math.IsInf(lo, 0) && !math.IsInf(hi, 0) {
			v := lo
			if rng.Intn(2) == 0 {
				v = hi
			}
			p.SetColBounds(col, v, v)
			got, err := w.SolveFrom(p, snap)
			if err != nil {
				t.Fatal(err)
			}
			want, err := lp.NewSolver().SolveFrom(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameObjective(t, what+": SolveFrom after a bound fix", got, want)
			p.SetColBounds(col, lo, hi)
		}

		ext := prependRows(rng, p, cold.X, 1+rng.Intn(2), false)
		if !checkPrepended(t, lp.NewSolver(), ext, snap, what+": SolveFrom after leading rows") {
			t.Fatalf("%s: loose leading rows fell back cold", what)
		}
		checked++
	}
	if checked < 150 {
		t.Errorf("only %d of 400 trials reached the warm starts", checked)
	}
}
