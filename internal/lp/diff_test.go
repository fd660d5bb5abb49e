package lp_test

import (
	"math"
	"math/rand"
	"testing"

	"nose/internal/lp"
)

// randomProblem builds a random bounded LP whose shape spans the forms
// the advisor emits: ≤ rows, ≥ rows, ranged rows, equalities, mixed-sign
// sparse coefficients, finite and infinite column bounds.
func randomProblem(rng *rand.Rand) *lp.Problem {
	p := lp.NewProblem()
	m := 1 + rng.Intn(8)
	n := 1 + rng.Intn(10)
	for i := 0; i < m; i++ {
		switch rng.Intn(4) {
		case 0:
			p.AddRow(math.Inf(-1), 1+5*rng.Float64())
		case 1:
			p.AddRow(-1-3*rng.Float64(), math.Inf(1))
		case 2:
			lo := -2 + 2*rng.Float64()
			p.AddRow(lo, lo+1+3*rng.Float64())
		default:
			v := -1 + 2*rng.Float64()
			p.AddRow(v, v)
		}
	}
	for j := 0; j < n; j++ {
		var es []lp.Entry
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.6 {
				es = append(es, lp.Entry{Row: i, Coef: math.Round((rng.Float64()*4-2)*4) / 4})
			}
		}
		obj := math.Round((rng.Float64()*6-3)*4) / 4
		switch rng.Intn(5) {
		case 0:
			p.AddCol(obj, 0, 1, es...)
		case 1:
			p.AddCol(obj, -1-rng.Float64(), 1+rng.Float64(), es...)
		case 2:
			v := rng.Float64()
			p.AddCol(obj, v, v, es...) // fixed
		case 3:
			// Unbounded above only when the objective pushes down, to
			// keep most trials bounded.
			p.AddCol(math.Abs(obj), 0, math.Inf(1), es...)
		default:
			p.AddCol(obj, 0, 3*rng.Float64(), es...)
		}
	}
	return p
}

// checkAgainstDense solves p with both engines and reports a mismatch.
// Trials where either engine hits its iteration limit are skipped.
func checkAgainstDense(t *testing.T, p *lp.Problem, trial int) {
	t.Helper()
	fast, err := lp.NewSolver().SolveFrom(p, nil)
	if err != nil {
		t.Fatalf("trial %d: sparse solve: %v", trial, err)
	}
	ref, err := lp.SolveDense(p)
	if err != nil {
		t.Fatalf("trial %d: dense solve: %v", trial, err)
	}
	if fast.Status == lp.IterationLimit || ref.Status == lp.IterationLimit {
		return
	}
	if fast.Status != ref.Status {
		t.Fatalf("trial %d: sparse status %v, dense status %v", trial, fast.Status, ref.Status)
	}
	if fast.Status != lp.Optimal {
		return
	}
	scale := 1 + math.Abs(ref.Objective)
	if math.Abs(fast.Objective-ref.Objective) > 1e-5*scale {
		t.Fatalf("trial %d: sparse objective %v, dense objective %v",
			trial, fast.Objective, ref.Objective)
	}
}

func TestSparseMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 500; trial++ {
		checkAgainstDense(t, randomProblem(rng), trial)
	}
}

// randomBinaryProblem builds a feasible BIP-relaxation-shaped LP: all
// structural variables in [0,1], choose-one equality rows plus ≤ link
// rows, as internal/search formulates.
func randomBinaryProblem(rng *rand.Rand) *lp.Problem {
	p := lp.NewProblem()
	groups := 1 + rng.Intn(4)
	perGroup := 2 + rng.Intn(3)
	n := groups * perGroup
	links := make([]int, 1+rng.Intn(3))
	for g := 0; g < groups; g++ {
		p.AddRow(1, 1)
	}
	for i := range links {
		links[i] = p.AddRow(math.Inf(-1), 0)
	}
	for g := 0; g < groups; g++ {
		for k := 0; k < perGroup; k++ {
			es := []lp.Entry{{Row: g, Coef: 1}}
			if rng.Float64() < 0.5 {
				es = append(es, lp.Entry{Row: links[rng.Intn(len(links))], Coef: 1})
			}
			p.AddCol(rng.Float64()*10, 0, 1, es...)
		}
	}
	for range links {
		// One "index" column per link row to absorb the plan links.
		lr := links[rng.Intn(len(links))]
		p.AddCol(1+rng.Float64()*5, 0, 1, lp.Entry{Row: lr, Coef: -float64(n)})
	}
	return p
}

// TestWarmStartMatchesCold drives the dual-simplex warm start through
// randomized branch-and-bound-like bound fixing chains and checks every
// result against a cold solve of the same problem.
func TestWarmStartMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	warm := lp.NewSolver()
	for trial := 0; trial < 200; trial++ {
		p := randomBinaryProblem(rng)
		root, err := warm.SolveFrom(p, nil)
		if err != nil {
			t.Fatalf("trial %d: root solve: %v", trial, err)
		}
		if root.Status != lp.Optimal {
			continue
		}
		snap := warm.Snapshot()
		// Fix a random subset of columns to 0/1, as child nodes do.
		nfix := 1 + rng.Intn(p.NumCols())
		for f := 0; f < nfix; f++ {
			col := rng.Intn(p.NumCols())
			v := float64(rng.Intn(2))
			p.SetColBounds(col, v, v)
		}
		got, err := warm.SolveFrom(p, snap)
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		want, err := lp.NewSolver().SolveFrom(p, nil)
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		if got.Status == lp.IterationLimit || want.Status == lp.IterationLimit {
			continue
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: warm status %v, cold status %v (fixes %d)",
				trial, got.Status, want.Status, nfix)
		}
		if got.Status == lp.Optimal {
			scale := 1 + math.Abs(want.Objective)
			if math.Abs(got.Objective-want.Objective) > 1e-6*scale {
				t.Fatalf("trial %d: warm objective %v, cold objective %v",
					trial, got.Objective, want.Objective)
			}
		}
	}
}

// TestSnapshotSharedAcrossSolvers mirrors branch and bound's use: a
// basis captured on one worker's solver warm-starts solves on another.
func TestSnapshotSharedAcrossSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 50; trial++ {
		p := randomBinaryProblem(rng)
		a, b := lp.NewSolver(), lp.NewSolver()
		root, err := a.SolveFrom(p, nil)
		if err != nil || root.Status != lp.Optimal {
			continue
		}
		snap := a.Snapshot()
		col := rng.Intn(p.NumCols())
		p.SetColBounds(col, 1, 1)
		got, err := b.SolveFrom(p, snap)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := lp.NewSolver().SolveFrom(p, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, got.Status, want.Status)
		}
		if got.Status == lp.Optimal && math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
			t.Fatalf("trial %d: objective %v vs %v", trial, got.Objective, want.Objective)
		}
	}
}

// TestSolveFromNilIsCold: a nil snapshot asks for a cold solve, counted
// in lp.cold_solves, and a snapshot of the wrong shape falls back to
// one, counted in lp.warm_fallbacks.
func TestSolveFromNilIsCold(t *testing.T) {
	p := lp.NewProblem()
	r := p.AddRow(1, 1)
	p.AddCol(1, 0, 1, lp.Entry{Row: r, Coef: 1})
	p.AddCol(2, 0, 1, lp.Entry{Row: r, Coef: 1})
	s := lp.NewSolver()
	stats := counted(s)
	sol, err := s.SolveFrom(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal || math.Abs(sol.Objective-1) > 1e-9 {
		t.Fatalf("cold solve: %v obj %v", sol.Status, sol.Objective)
	}
	if st := stats(); st["lp.cold_solves"] != 1 || st["lp.warm_fallbacks"] != 0 {
		t.Errorf("%d cold solves and %d fallbacks, want 1 and 0", st["lp.cold_solves"], st["lp.warm_fallbacks"])
	}
	snap := s.Snapshot()
	p.AddCol(0, 0, 1) // changes the shape; snapshot no longer matches
	sol, err = s.SolveFrom(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal || math.Abs(sol.Objective-1) > 1e-9 {
		t.Fatalf("shape fallback: %v obj %v", sol.Status, sol.Objective)
	}
	if st := stats(); st["lp.solves"] != 2 || st["lp.cold_solves"] != 1 || st["lp.warm_fallbacks"] != 1 {
		t.Errorf("%d solves, %d cold and %d fallbacks, want 2, 1 and 1", st["lp.solves"], st["lp.cold_solves"], st["lp.warm_fallbacks"])
	}
}

// FuzzSimplex decodes arbitrary bytes into a small bounded LP and
// cross-checks the eta-file engine against the dense reference.
func FuzzSimplex(f *testing.F) {
	f.Add([]byte{3, 4, 1, 200, 13, 7, 90, 41, 0, 255, 18, 6})
	f.Add([]byte{1, 1, 128})
	f.Add([]byte{8, 2, 0, 0, 0, 0, 9, 9, 9, 9, 77, 140, 210, 3, 16})
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
			obj := float64(int(next())-128) / 16
			hi := float64(next() % 8)
			p.AddCol(obj, 0, hi, es...)
		}
		fast, err := lp.NewSolver().SolveFrom(p, nil)
		if err != nil {
			t.Fatalf("sparse: %v", err)
		}
		ref, err := lp.SolveDense(p)
		if err != nil {
			t.Fatalf("dense: %v", err)
		}
		if fast.Status == lp.IterationLimit || ref.Status == lp.IterationLimit {
			return
		}
		if fast.Status != ref.Status {
			t.Fatalf("status: sparse %v, dense %v", fast.Status, ref.Status)
		}
		if fast.Status == lp.Optimal {
			scale := 1 + math.Abs(ref.Objective)
			if math.Abs(fast.Objective-ref.Objective) > 1e-5*scale {
				t.Fatalf("objective: sparse %v, dense %v", fast.Objective, ref.Objective)
			}
		}
	})
}
