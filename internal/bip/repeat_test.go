package bip_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nose/internal/bip"
	"nose/internal/lp"
	"nose/internal/obs"
)

// knapsackProgram is a maximization over n items under rows capacity
// rows with fractional weights: a tree of hundreds of nodes, with
// integral leaves, rounding nodes and sibling pairs in every batch.
func knapsackProgram(seed int64, n, rows int) *bip.Program {
	rng := rand.New(rand.NewSource(seed))
	p := bip.New()
	es := make([][]lp.Entry, n)
	for r := 0; r < rows; r++ {
		w := make([]float64, n)
		total := 0.0
		for i := range w {
			w[i] = 1 + 9*rng.Float64()
			total += w[i]
		}
		row := p.AddRow(math.Inf(-1), 0.4*total)
		for i := range es {
			es[i] = append(es[i], lp.Entry{Row: row, Coef: w[i]})
		}
	}
	for i := range es {
		p.AddBinary(-(1 + 20*rng.Float64()), es[i]...)
	}
	return p
}

// TestSolveRepeatable: Solve takes its LP solvers from a pool that
// earlier calls returned them to, so the same program solved twice in a
// row, and again after a different program, must give the same Result —
// status, objective, point, bound, node count and root basis — and the
// same bip.* and lp.* counters, at one worker and at four, as a solve
// on solvers that never saw another program.
func TestSolveRepeatable(t *testing.T) {
	a, b := knapsackProgram(5, 30, 3), knapsackProgram(9, 40, 3)
	type run struct {
		res      *bip.Result
		counters map[string]int64
	}
	solve := func(p *bip.Program, workers int) run {
		t.Helper()
		reg := obs.NewRegistry()
		res, err := p.Solve(bip.Options{Workers: workers, MaxNodes: 400, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return run{res, reg.Snapshot().Counters}
	}
	same := func(what string, want, got run) {
		t.Helper()
		if math.Float64bits(got.res.Objective) != math.Float64bits(want.res.Objective) ||
			math.Float64bits(got.res.Bound) != math.Float64bits(want.res.Bound) ||
			!reflect.DeepEqual(got.res, want.res) {
			t.Errorf("%s: result %+v, want %+v", what, got.res, want.res)
		}
		if !reflect.DeepEqual(got.counters, want.counters) {
			t.Errorf("%s: counters %v, want %v", what, got.counters, want.counters)
		}
	}
	for _, workers := range []int{1, 4} {
		first := solve(a, workers)
		same("solved again", first, solve(a, workers))
		other := solve(b, workers)
		for _, r := range []run{first, other} {
			if r.res.Nodes < 100 || r.counters["lp.factor_reuses"] == 0 {
				t.Fatalf("a program explored %d nodes and reused %d loads; the pooled solvers saw too little",
					r.res.Nodes, r.counters["lp.factor_reuses"])
			}
		}
		same("solved after another program", first, solve(a, workers))
		same("the other program solved again", other, solve(b, workers))
		t.Logf("workers %d: %d and %d nodes", workers, first.res.Nodes, other.res.Nodes)
	}
}
