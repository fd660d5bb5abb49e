package search

import (
	"errors"
	"math"
	"testing"

	"nose/internal/bip"
	"nose/internal/enumerator"
	"nose/internal/planner"
	"nose/internal/randwork"
)

// TestAdviseMatchesBruteForce holds the advisor to an oracle that does
// not search: over tiny random workloads, the cheapest of the program's
// evaluated points, one per subset of the paid families, must be what
// Advise's phase 1 proves optimal, to 1e-9, and the two must agree on
// whether any schema is feasible. The oracle shares the program and
// evaluate with the advisor, not its bound or its branching. No space
// budget is set: a budget makes every family paid, and these pools hold
// 22 families or more, too many subsets to try.
func TestAdviseMatchesBruteForce(t *testing.T) {
	opt := Options{Workers: 1, Planner: planner.Config{MaxPlansPerQuery: 16}, MaxSupportPlans: 4}
	checked := 0
	for seed := int64(1); seed <= 60; seed++ {
		w, err := randwork.Generate(randwork.Config{Seed: seed, BaseEntities: 3, BaseQueries: 3, BaseUpdates: 1, RingNeighbors: 2})
		if err != nil {
			t.Fatal(err)
		}
		o := opt.withDefaults()
		enumRes, err := enumerator.EnumerateWorkloadCtx(o.Ctx, w, o.Enumerator, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prepare(w, nil, enumRes, false, o, &SeriesRecommendation{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, refs := p.builders[0], p.refs[0]
		var paid []int // pool positions with a presence column
		for pos, col := range refs.indexCol {
			if col >= 0 {
				paid = append(paid, pos)
			}
		}
		if len(paid) < 1 || len(paid) > 12 {
			continue
		}
		best := math.Inf(1)
		x := make([]float64, p.prog.NumCols())
		selected := make([]bool, len(b.pool))
		for set := 0; set < 1<<len(paid); set++ {
			for i, pos := range paid {
				selected[pos] = set>>i&1 == 1
			}
			b.evaluate(x, refs, selected)
			if cost, ok := p.prog.Eval(x); ok {
				best = min(best, cost)
			}
		}

		rec, err := Advise(w, opt)
		if errors.Is(err, ErrInfeasible) {
			if !math.IsInf(best, 1) {
				t.Errorf("seed %d: advisor finds no schema, oracle finds one at %.12g", seed, best)
			}
			checked++
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rec.Stats.Phase1.Status != bip.Optimal {
			continue
		}
		checked++
		if math.IsInf(best, 1) {
			t.Errorf("seed %d: oracle finds no schema, advisor proves %.12g", seed, rec.Cost)
		} else if math.Abs(rec.Cost-best) > 1e-9*math.Max(1, math.Abs(best)) {
			t.Errorf("seed %d (%d paid families): advisor proves %.12g, oracle finds %.12g", seed, len(paid), rec.Cost, best)
		}
	}
	if checked < 20 {
		t.Errorf("%d inputs checked, want at least 20", checked)
	}
	t.Logf("%d inputs checked", checked)
}
