package bip_test

import (
	"math"
	"math/rand"
	"testing"

	"nose/internal/bip"
	"nose/internal/lp"
	"nose/internal/obs"
)

// randomIntegerProgram draws an all-binary program of at most 12
// columns with integer objective coefficients (some negative, some
// zero) and a mix of ≤ rows, ≥ rows and equality rows over small integer
// coefficients; a fair share are infeasible. It returns the program and
// the data brute force needs.
func randomIntegerProgram(rng *rand.Rand) (p *bip.Program, obj []float64, rows [][]float64, lo, hi []float64) {
	n := 3 + rng.Intn(10)
	m := 1 + rng.Intn(5)
	p = bip.New()
	rows = make([][]float64, m)
	lo, hi = make([]float64, m), make([]float64, m)
	for i := range rows {
		rows[i] = make([]float64, n)
		sum := 0.0
		for j := range rows[i] {
			if rng.Intn(2) == 0 {
				rows[i][j] = float64(1 + rng.Intn(4))
				sum += rows[i][j]
			}
		}
		lo[i], hi[i] = math.Inf(-1), math.Inf(1)
		switch rhs := math.Floor(sum * rng.Float64()); rng.Intn(3) {
		case 0:
			hi[i] = rhs
		case 1:
			lo[i] = rhs
		default:
			lo[i], hi[i] = rhs, rhs
		}
		p.AddRow(lo[i], hi[i])
	}
	obj = make([]float64, n)
	for j := range obj {
		obj[j] = float64(rng.Intn(9) - 3)
		var es []lp.Entry
		for i := range rows {
			if rows[i][j] != 0 {
				es = append(es, lp.Entry{Row: i, Coef: rows[i][j]})
			}
		}
		p.AddBinary(obj[j], es...)
	}
	return p, obj, rows, lo, hi
}

// bruteForce enumerates all 2ⁿ assignments.
func bruteForce(obj []float64, rows [][]float64, lo, hi []float64) (best float64, feasible bool) {
	n := len(obj)
	best = math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		ok, val := true, 0.0
		for i := range rows {
			act := 0.0
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					act += rows[i][j]
				}
			}
			if act < lo[i] || act > hi[i] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for j := 0; j < n; j++ {
			if mask>>j&1 == 1 {
				val += obj[j]
			}
		}
		feasible = true
		best = math.Min(best, val)
	}
	return best, feasible
}

// TestIntegerObjectiveAgainstBruteForce: on random all-binary programs
// with integer objectives, Solve must agree with exhaustive enumeration
// on feasibility and on the optimal value — with the bound rounding the
// integer objective licenses, and with it switched off. The rounding
// may only save nodes: it prunes subtrees that cannot beat the
// incumbent, so the answer stands and the tree never grows.
func TestIntegerObjectiveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	infeasible, pruned, saved := 0, int64(0), 0
	for trial := 0; trial < 300; trial++ {
		p, obj, rows, lo, hi := randomIntegerProgram(rng)
		want, feasible := bruteForce(obj, rows, lo, hi)
		if !feasible {
			infeasible++
		}
		solve := func(how string, reg *obs.Registry) *bip.Result {
			res, err := p.Solve(bip.Options{Workers: 1 + trial%3, Obs: reg})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, how, err)
			}
			if !feasible {
				if res.Status != bip.Infeasible || res.HasSolution {
					t.Fatalf("trial %d %s: %v with solution %v, brute force finds none", trial, how, res.Status, res.HasSolution)
				}
				return res
			}
			// An incumbent read off an integral relaxation carries the LP's
			// last-bit noise.
			if res.Status != bip.Optimal || math.Abs(res.Objective-want) > 1e-9 {
				t.Fatalf("trial %d %s: %v objective %v, brute force %v", trial, how, res.Status, res.Objective, want)
			}
			if res.Bound != res.Objective {
				t.Errorf("trial %d %s: bound %v of a completed search with objective %v", trial, how, res.Bound, res.Objective)
			}
			return res
		}
		reg := obs.NewRegistry()
		rounded := solve("rounding", reg)
		pruned += reg.Snapshot().Counters["bip.pruned_integral"]
		restore := bip.SetNoRounding()
		reg = obs.NewRegistry()
		plain := solve("no rounding", reg)
		restore()
		if n := reg.Snapshot().Counters["bip.pruned_integral"]; n != 0 {
			t.Errorf("trial %d: %d nodes pruned by rounding with rounding off", trial, n)
		}
		if rounded.Nodes > plain.Nodes {
			t.Errorf("trial %d: %d nodes with rounding, %d without", trial, rounded.Nodes, plain.Nodes)
		}
		saved += plain.Nodes - rounded.Nodes
	}
	if infeasible < 20 || infeasible > 200 {
		t.Errorf("%d of 300 programs infeasible: the draw is lopsided", infeasible)
	}
	if pruned == 0 || saved == 0 {
		t.Errorf("rounding pruned %d nodes and saved %d: it never fired", pruned, saved)
	}
}

// TestRoundingNeedsAnIntegerObjective: a program on which rounding a
// bound up would prune the optimum away, because its objective takes
// values between the integers. It is seeded with a feasible point that
// is worse than the optimum yet no worse than the root bound rounded
// up; a solver that rounded would stop there.
func TestRoundingNeedsAnIntegerObjective(t *testing.T) {
	t.Run("fractional coefficient", func(t *testing.T) {
		// Cover the edges of a triangle: the relaxation takes half of
		// each vertex (0.475), the optimum the two cheap ones (0.6), the
		// seed a cheap and the dear one (0.65 ≤ ⌈0.475⌉).
		p := bip.New()
		edges := [3]int{p.AddRow(1, math.Inf(1)), p.AddRow(1, math.Inf(1)), p.AddRow(1, math.Inf(1))}
		for v, c := range [3]float64{0.3, 0.3, 0.35} {
			p.AddBinary(c, lp.Entry{Row: edges[v], Coef: 1}, lp.Entry{Row: edges[(v+1)%3], Coef: 1})
		}
		reg := obs.NewRegistry()
		res, err := p.Solve(bip.Options{Incumbent: []float64{1, 0, 1}, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != bip.Optimal || math.Abs(res.Objective-0.6) > 1e-9 {
			t.Errorf("%v objective %v, want the optimum 0.6", res.Status, res.Objective)
		}
		if n := reg.Snapshot().Counters["bip.pruned_integral"]; n != 0 {
			t.Errorf("%d nodes pruned by rounding", n)
		}
	})
}

// TestTruncatedBoundRoundsUp: a search over an integer objective that
// stops at the node limit reports its open bound rounded up, so the gap
// it carries is the one the objective's integrality already closes.
func TestTruncatedBoundRoundsUp(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	seen := 0
	for trial := 0; trial < 200 && seen < 10; trial++ {
		p, _, _, _, _ := randomIntegerProgram(rng)
		res, err := p.Solve(bip.Options{MaxNodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != bip.NodeLimit || !res.HasSolution {
			continue
		}
		seen++
		if (res.Bound != math.Trunc(res.Bound) && res.Bound != res.Objective) || res.Bound > res.Objective {
			t.Errorf("trial %d: bound %v under objective %v: want an integer or the objective itself", trial, res.Bound, res.Objective)
		}
	}
	if seen == 0 {
		t.Error("no program was truncated with an incumbent")
	}
}
