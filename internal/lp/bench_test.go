package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nose/internal/lp"
)

// benchProblem builds a set-partition-with-costs LP shaped like the
// relaxations the BIP solver hands to this package: choose rows, link
// rows, and 0-1 bounded columns with a few entries each.
func benchProblem(groups, perGroup int, rng *rand.Rand) *lp.Problem {
	p := lp.NewProblem()
	capRow := p.AddRow(math.Inf(-1), float64(groups)/2)
	for g := 0; g < groups; g++ {
		choose := p.AddRow(1, 1)
		for k := 0; k < perGroup; k++ {
			p.AddCol(rng.Float64()+0.1, 0, 1,
				lp.Entry{Row: choose, Coef: 1},
				lp.Entry{Row: capRow, Coef: rng.Float64()},
			)
		}
	}
	return p
}

// BenchmarkSimplex locks in the reusable-Solver hot path: repeated
// solves of one problem must not allocate per iteration.
func BenchmarkSimplex(b *testing.B) {
	p := benchProblem(24, 6, rand.New(rand.NewSource(7)))
	s := lp.NewSolver()
	if _, err := s.SolveFrom(p, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := s.SolveFrom(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkSimplexFresh measures the same solve without solver reuse,
// for comparison against BenchmarkSimplex.
func BenchmarkSimplexFresh(b *testing.B) {
	p := benchProblem(24, 6, rand.New(rand.NewSource(7)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve()
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkSimplexWarmStart measures a branch-and-bound-shaped child
// solve: fix one column of an already-solved problem and re-solve from
// the parent's basis snapshot, against BenchmarkSimplexCold's full
// two-phase solve of the identical child problem.
func BenchmarkSimplexWarmStart(b *testing.B) {
	p := benchProblem(24, 6, rand.New(rand.NewSource(7)))
	s := lp.NewSolver()
	if _, err := s.SolveFrom(p, nil); err != nil {
		b.Fatal(err)
	}
	snap := s.Snapshot()
	p.SetColBounds(5, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := s.SolveFrom(p, snap)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkSimplexCold is the cold-solve baseline for
// BenchmarkSimplexWarmStart: the same child problem solved from
// scratch.
func BenchmarkSimplexCold(b *testing.B) {
	p := benchProblem(24, 6, rand.New(rand.NewSource(7)))
	s := lp.NewSolver()
	if _, err := s.SolveFrom(p, nil); err != nil {
		b.Fatal(err)
	}
	p.SetColBounds(5, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := s.SolveFrom(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// advisorProblem builds an LP of exactly rows rows shaped like the
// advisor's formulation: per query one choose-exactly-one row over its
// plan columns, and per (query, family) pair one link row on which the
// plans reading that family carry +1 and the family's presence column
// -1. Plan costs fall as a plan reads more families and presence
// columns carry a maintenance cost, so the optimal basis mixes plan,
// presence and slack columns the way a branch-and-bound node's does.
func advisorProblem(rows int, rng *rand.Rand) *lp.Problem {
	p := lp.NewProblem()
	families := make([][]lp.Entry, rows/5)
	for len(families) > 0 && p.NumRows() < rows {
		choose := p.AddRow(1, 1)
		// This query's families and their link rows, while rows remain.
		var fams, links []int
		for want := 2 + rng.Intn(4); len(fams) < want && p.NumRows() < rows; {
			f := rng.Intn(len(families))
			link := p.AddRow(math.Inf(-1), 0)
			families[f] = append(families[f], lp.Entry{Row: link, Coef: -1})
			fams, links = append(fams, f), append(links, link)
		}
		for k := 3 + rng.Intn(5); k > 0; k-- {
			es := []lp.Entry{{Row: choose, Coef: 1}}
			cost := 10 + 10*rng.Float64()
			for i := range links {
				if rng.Intn(2) == 0 {
					es = append(es, lp.Entry{Row: links[i], Coef: 1})
					cost *= 0.5
				}
			}
			p.AddCol(cost, 0, 1, es...)
		}
	}
	for _, es := range families {
		p.AddCol(1+4*rng.Float64(), 0, 1, es...)
	}
	return p
}

// BenchmarkRefactor measures refactorizations of an optimal basis at
// the two advisor scales bench/ exercises — RUBiS formulates 244 rows,
// the factor-3 random workload 802 — which is the fixed cost branch and
// bound pays per node before its handful of dual pivots. One op is 64
// refactorizations, so that the gate's -benchtime=3x times milliseconds
// and not a cold cache.
func BenchmarkRefactor(b *testing.B) {
	for _, rows := range []int{244, 802} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			p := advisorProblem(rows, rand.New(rand.NewSource(7)))
			if p.NumRows() != rows {
				b.Fatalf("generator built %d rows, want %d", p.NumRows(), rows)
			}
			s := lp.NewSolver()
			if sol, err := s.SolveFrom(p, nil); err != nil || sol.Status != lp.Optimal {
				b.Fatalf("root solve: %v, %v", sol, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for rep := 0; rep < 64; rep++ {
					if !s.Refactor() {
						b.Fatal("optimal basis became singular")
					}
				}
			}
		})
	}
}

// TestSolverReuseMatchesFresh solves a sequence of differently-shaped
// random problems with one reused Solver and compares every result
// against a fresh per-problem solve. Advisor-scale problems alternate
// with tiny ones, so each refactorization starts from the per-row
// scratch a basis of another size left behind. Each large problem is
// also re-solved from its own optimal basis after every column the
// optimum uses has had its coefficients cancelled: the basic ones among
// them are now zero columns, the refactorization fails part-way, and
// the cold fallback has to run on whatever the failure left.
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := lp.NewSolver()
	stats := counted(s)
	same := func(trial int, reused, fresh *lp.Solution) {
		t.Helper()
		if reused.Status != fresh.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, reused.Status, fresh.Status)
		}
		if reused.Status != lp.Optimal {
			return
		}
		if math.Abs(reused.Objective-fresh.Objective) > 1e-9 {
			t.Fatalf("trial %d: objective %v vs %v", trial, reused.Objective, fresh.Objective)
		}
		for j := range reused.X {
			if math.Abs(reused.X[j]-fresh.X[j]) > 1e-9 {
				t.Fatalf("trial %d: x[%d] %v vs %v", trial, j, reused.X[j], fresh.X[j])
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		large := trial%2 == 0
		var p *lp.Problem
		if large {
			p = advisorProblem(120+rng.Intn(300), rng)
		} else {
			p = benchProblem(2+rng.Intn(8), 1+rng.Intn(5), rng)
		}
		reused, err := s.SolveFrom(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		same(trial, reused, fresh)
		if !large || reused.Status != lp.Optimal {
			continue
		}

		snap := s.Snapshot()
		broken := p.Clone()
		for j, v := range reused.X {
			if v > 1e-6 {
				for _, e := range p.ColEntries(j) {
					broken.AddEntry(j, e.Row, -e.Coef)
				}
			}
		}
		before := stats()["lp.warm_fallbacks"]
		reused, err = s.SolveFrom(broken, snap)
		if err != nil {
			t.Fatal(err)
		}
		if stats()["lp.warm_fallbacks"] == before {
			continue // every cancelled column was nonbasic at its bound
		}
		fresh, err = broken.Solve()
		if err != nil {
			t.Fatal(err)
		}
		same(trial, reused, fresh)
	}
	if stats()["lp.warm_fallbacks"] < 10 {
		t.Errorf("%d failed basis loads; most large trials should produce one", stats()["lp.warm_fallbacks"])
	}
}

// TestCloneIsolation verifies that mutating a clone's bounds, objective
// and entries leaves the original untouched and vice versa. A clone of a
// validated problem shares its row-major copy of the entries, and an
// entry added to the clone drops the clone's copy only.
func TestCloneIsolation(t *testing.T) {
	p := lp.NewProblem()
	r := p.AddRow(math.Inf(-1), 10)
	c0 := p.AddCol(1, 0, 1, lp.Entry{Row: r, Coef: 2})
	c1 := p.AddCol(-1, 0, 5, lp.Entry{Row: r, Coef: 1})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	cp := p.Clone()
	if !lp.SharesRowCopy(p, cp) {
		t.Error("the clone of a validated problem does not share its row copy")
	}
	cp.SetColBounds(c0, 1, 1)
	cp.SetObj(c1, 3)
	cp.AddEntry(c1, r, 4)
	if lp.HasRowCopy(cp) || !lp.HasRowCopy(p) {
		t.Errorf("after AddEntry on the clone: clone holds a row copy %v, source %v; want false, true",
			lp.HasRowCopy(cp), lp.HasRowCopy(p))
	}

	orig, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Original: minimize x0 - x1 s.t. 2x0 + x1 <= 10 -> x0=0, x1=5.
	if orig.Status != lp.Optimal || math.Abs(orig.Objective-(-5)) > 1e-9 {
		t.Fatalf("original polluted by clone mutation: %+v", orig)
	}

	mod, err := cp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Clone: minimize x0 + 3x1 with x0 fixed at 1 -> x0=1, x1=0.
	if mod.Status != lp.Optimal || math.Abs(mod.Objective-1) > 1e-9 {
		t.Fatalf("clone did not carry mutations: %+v", mod)
	}
	if !lp.HasRowCopy(cp) || lp.SharesRowCopy(p, cp) {
		t.Error("solving the clone did not build it a row copy of its own")
	}
}
