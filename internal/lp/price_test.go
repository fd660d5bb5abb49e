package lp_test

import (
	"math/rand"
	"testing"

	"nose/internal/lp"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/search"
)

// watchReducedCosts installs a pivot hook that prices every basis a
// pivot leaves from scratch and fails t when a maintained reduced cost
// is off by more than 1e-9 relative. It returns the number of pivots
// checked so far and the function that removes the hook.
func watchReducedCosts(t *testing.T) (checked func() int, restore func()) {
	n := 0
	restore = lp.SetPivotHook(func(s *lp.Solver, c []float64) {
		n++
		if err := lp.CheckReducedCosts(s, c, 1e-9); err != nil {
			t.Errorf("pivot %d: %v", n, err)
		}
	})
	return func() int { return n }, restore
}

// TestMaintainedReducedCostsMatchFresh: the reduced costs carried from
// pivot to pivot through the pivot row must equal a full price of the
// same basis after every pivot, primal and dual, to 1e-9 relative: over
// cold solves of random programs, chains of bound fixes each solved from
// the previous optimum's snapshot, phase 2's prepended-row warm start,
// and every solve of a RUBiS advise at the daemon's defaults.
func TestMaintainedReducedCostsMatchFresh(t *testing.T) {
	t.Run("cold", func(t *testing.T) {
		checked, restore := watchReducedCosts(t)
		defer restore()
		rng := rand.New(rand.NewSource(41))
		s := lp.NewSolver()
		for trial := 0; trial < 400; trial++ {
			p := randomProblem(rng)
			if trial%4 == 0 {
				p = advisorProblem(100+rng.Intn(300), rng)
			}
			if _, err := s.SolveFrom(p, nil); err != nil {
				t.Fatal(err)
			}
		}
		if checked() == 0 {
			t.Fatal("no pivot was checked")
		}
	})

	t.Run("fix-chains", func(t *testing.T) {
		checked, restore := watchReducedCosts(t)
		defer restore()
		rng := rand.New(rand.NewSource(43))
		s := lp.NewSolver()
		stats := counted(s)
		var dual int64
		warm := func(p *lp.Problem, snap *lp.Basis) *lp.Solution {
			t.Helper()
			before := stats()["lp.dual_pivots"]
			sol, err := s.SolveFrom(p, snap)
			if err != nil {
				t.Fatal(err)
			}
			dual += stats()["lp.dual_pivots"] - before
			return sol
		}
		for trial := 0; trial < 200; trial++ {
			p := randomBinaryProblem(rng)
			if trial%4 == 0 {
				p = advisorProblem(100+rng.Intn(300), rng)
			}
			sol, err := s.SolveFrom(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			for fix := 0; fix < 6 && sol.Status == lp.Optimal; fix++ {
				snap := s.Snapshot()
				v := float64(rng.Intn(2))
				p.SetColBounds(rng.Intn(p.NumCols()), v, v)
				sol = warm(p, snap)
			}
		}
		// Cutting every route's capacity of a transportation program is a
		// dual solve long enough to refactorize on the way.
		p := transportProblem(30, rng)
		if _, err := s.SolveFrom(p, nil); err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		for j := 0; j < p.NumCols(); j++ {
			p.SetColBounds(j, 0, 0.15)
		}
		refactors := stats()["lp.refactors"]
		warm(p, snap)
		if stats()["lp.refactors"]-refactors < 2 {
			t.Error("the transport solve did not refactorize mid-solve")
		}
		if checked() == 0 || dual == 0 {
			t.Fatalf("%d pivots checked, %d of them dual", checked(), dual)
		}
	})

	t.Run("prepended", func(t *testing.T) {
		checked, restore := watchReducedCosts(t)
		defer restore()
		rng := rand.New(rand.NewSource(47))
		s := lp.NewSolver()
		stats := counted(s)
		var primal int64
		for trial := 0; trial < 300; trial++ {
			p := randomBinaryProblem(rng)
			if trial%2 == 1 {
				p = randomProblem(rng)
			}
			sol, err := s.SolveFrom(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != lp.Optimal {
				continue
			}
			snap := s.Snapshot()
			before := stats()
			if _, err := s.SolveFrom(prependRows(rng, p, sol.X, 1+rng.Intn(3), false), snap); err != nil {
				t.Fatal(err)
			}
			if after := stats(); after["lp.warm_fallbacks"] == before["lp.warm_fallbacks"] {
				primal += after["lp.pivots"] - before["lp.pivots"]
			}
		}
		if primal == 0 {
			t.Fatalf("%d pivots checked, none on the primal warm path", checked())
		}
	})

	t.Run("rubis-advise", func(t *testing.T) {
		checked, restore := watchReducedCosts(t)
		defer restore()
		w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, err := search.Advise(w, search.Options{
			Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery},
			Workers: 1,
			Obs:     reg,
		}); err != nil {
			t.Fatal(err)
		}
		if pivots := reg.Snapshot().Counters["lp.pivots"]; pivots == 0 || int64(checked()) != pivots {
			t.Errorf("checked %d pivots, the advise counted %d", checked(), pivots)
		}
	})
}

// TestDualRatioTieBreak: the dual ratio test walks only the columns the
// pivot row reaches, and the row-major walk meets them in row order; an
// exact tie must still go to the lower column index.
//
// The program is min x0 − x1 subject to z + x1 = 2 and z + x0 + t = 1.5,
// with x0, x1 in [0, 1] and z, t in [0, 10]. Its optimum x0 = 0, x1 = 1
// has z = 1 and t = 0.5 basic. Capping t at 0.25 makes t's row leave;
// that row of B⁻¹A is 1 on x0 and −1 on x1, whose reduced costs are 1
// and −1, so x0 (at its lower bound) and x1 (at its upper) tie on ratio
// and on |α|. The row walk meets x1 (row 0) before x0 (row 1). Index
// order picks x0, ending at x0 = 0.25, x1 = 1; x1 entering would end at
// x0 = 0, x1 = 0.75, at the same objective −0.75.
func TestDualRatioTieBreak(t *testing.T) {
	p := lp.NewProblem()
	r0 := p.AddRow(2, 2)
	r1 := p.AddRow(1.5, 1.5)
	x0 := p.AddCol(1, 0, 1, lp.Entry{Row: r1, Coef: 1})
	x1 := p.AddCol(-1, 0, 1, lp.Entry{Row: r0, Coef: 1})
	p.AddCol(0, 0, 10, lp.Entry{Row: r0, Coef: 1}, lp.Entry{Row: r1, Coef: 1})
	tc := p.AddCol(0, 0, 10, lp.Entry{Row: r1, Coef: 1})

	s := lp.NewSolver()
	stats := counted(s)
	if sol, err := s.SolveFrom(p, nil); err != nil || sol.Status != lp.Optimal || sol.X[x0] != 0 || sol.X[x1] != 1 {
		t.Fatalf("root solve: %+v, %v", sol, err)
	}
	snap := s.Snapshot()
	p.SetColBounds(tc, 0, 0.25)
	before := stats()
	sol, err := s.SolveFrom(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	after := stats()
	if dual := after["lp.dual_pivots"] - before["lp.dual_pivots"]; dual != 1 || after["lp.warm_fallbacks"] != before["lp.warm_fallbacks"] {
		t.Fatalf("%d dual pivots, %d fallbacks; want one dual pivot on the warm path", dual, after["lp.warm_fallbacks"]-before["lp.warm_fallbacks"])
	}
	if sol.Status != lp.Optimal || sol.Objective != -0.75 {
		t.Fatalf("%v objective %v, want optimal -0.75", sol.Status, sol.Objective)
	}
	if sol.X[x0] != 0.25 || sol.X[x1] != 1 {
		t.Errorf("x0 = %v, x1 = %v: the tie went to x1; want x0 = 0.25, x1 = 1", sol.X[x0], sol.X[x1])
	}
}

// TestWarmSolveAllocations: a warm-started solve on a reused solver,
// dual pivots included, allocates only the Solution; its X is the
// solver's own storage.
func TestWarmSolveAllocations(t *testing.T) {
	p := advisorProblem(244, rand.New(rand.NewSource(7)))
	s := lp.NewSolver()
	stats := counted(s)
	root, err := s.SolveFrom(p, nil)
	if err != nil || root.Status != lp.Optimal {
		t.Fatalf("root solve: %v, %v", root, err)
	}
	snap := s.Snapshot()
	for j, v := range root.X {
		if v > 0.5 {
			p.SetColBounds(j, 0, 0)
			break
		}
	}
	before := stats()["lp.dual_pivots"]
	allocs := testing.AllocsPerRun(20, func() {
		if sol, err := s.SolveFrom(p, snap); err != nil || sol.Status != lp.Optimal {
			t.Fatalf("warm solve: %v, %v", sol, err)
		}
	})
	if stats()["lp.dual_pivots"] == before {
		t.Fatal("the warm solve took no dual pivot")
	}
	if allocs != 1 {
		t.Errorf("%v allocations per warm solve, want 1 (the Solution)", allocs)
	}
}
