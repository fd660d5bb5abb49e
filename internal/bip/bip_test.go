package bip_test

import (
	"math"
	"math/rand"
	"testing"

	"nose/internal/bip"
	"nose/internal/lp"
	"nose/internal/obs"
)

func TestKnapsack(t *testing.T) {
	// maximize 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6 (binary).
	// Best: a + c = 17 (weight 5); b + c = 20 (weight 6) <- optimum.
	p := bip.New()
	r := p.AddRow(math.Inf(-1), 6)
	p.AddBinary(-10, lp.Entry{Row: r, Coef: 3})
	p.AddBinary(-13, lp.Entry{Row: r, Coef: 4})
	p.AddBinary(-7, lp.Entry{Row: r, Coef: 2})
	res, err := p.Solve(bip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bip.Optimal || !res.HasSolution {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Objective+20) > 1e-6 {
		t.Errorf("objective = %v, want -20 (x=%v)", res.Objective, res.X)
	}
	if res.X[0] != 0 || res.X[1] != 1 || res.X[2] != 1 {
		t.Errorf("x = %v", res.X)
	}
}

func TestSetPartitionExact(t *testing.T) {
	// Exactly one of three plans per query; the LP relaxation of this
	// instance is fractional, forcing branching. Two queries share an
	// index with a maintenance cost.
	p := bip.New()
	q1 := p.AddRow(1, 1)
	q2 := p.AddRow(1, 1)
	l1 := p.AddRow(math.Inf(-1), 0) // y11 - x <= 0
	l2 := p.AddRow(math.Inf(-1), 0) // y21 - x <= 0

	y11 := p.AddBinary(1, lp.Entry{Row: q1, Coef: 1}, lp.Entry{Row: l1, Coef: 1})
	y12 := p.AddBinary(4, lp.Entry{Row: q1, Coef: 1})
	y21 := p.AddBinary(1, lp.Entry{Row: q2, Coef: 1}, lp.Entry{Row: l2, Coef: 1})
	y22 := p.AddBinary(4, lp.Entry{Row: q2, Coef: 1})
	x := p.AddBinary(3, lp.Entry{Row: l1, Coef: -1}, lp.Entry{Row: l2, Coef: -1})

	res, err := p.Solve(bip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sharing the index: 1 + 1 + 3 = 5 beats 4 + 4 = 8.
	if math.Abs(res.Objective-5) > 1e-6 {
		t.Fatalf("objective = %v, want 5 (x=%v)", res.Objective, res.X)
	}
	if res.X[y11] != 1 || res.X[y21] != 1 || res.X[x] != 1 || res.X[y12] != 0 || res.X[y22] != 0 {
		t.Errorf("x = %v", res.X)
	}
}

func TestInfeasibleProgram(t *testing.T) {
	// a + b = 2 with a + b <= 1 (binary).
	p := bip.New()
	r1 := p.AddRow(2, 2)
	r2 := p.AddRow(math.Inf(-1), 1)
	p.AddBinary(1, lp.Entry{Row: r1, Coef: 1}, lp.Entry{Row: r2, Coef: 1})
	p.AddBinary(1, lp.Entry{Row: r1, Coef: 1}, lp.Entry{Row: r2, Coef: 1})
	res, err := p.Solve(bip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bip.Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestEqualityGating(t *testing.T) {
	// The support-query gating shape: sum of plan vars equals the
	// index presence var. When the index is worth opening, exactly one
	// support plan activates.
	p := bip.New()
	choose := p.AddRow(1, 1)          // main query picks plan A or B
	gate := p.AddRow(0, 0)            // sA + sB - x = 0
	link := p.AddRow(math.Inf(-1), 0) // yA - x <= 0

	yA := p.AddBinary(1, lp.Entry{Row: choose, Coef: 1}, lp.Entry{Row: link, Coef: 1})
	p.AddBinary(10, lp.Entry{Row: choose, Coef: 1})
	x := p.AddBinary(2, lp.Entry{Row: link, Coef: -1}, lp.Entry{Row: gate, Coef: -1})
	sA := p.AddBinary(1, lp.Entry{Row: gate, Coef: 1})
	sB := p.AddBinary(3, lp.Entry{Row: gate, Coef: 1})

	res, err := p.Solve(bip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Open the index: 1 (plan A) + 2 (index) + 1 (support A) = 4 < 10.
	if math.Abs(res.Objective-4) > 1e-6 {
		t.Fatalf("objective = %v (x=%v)", res.Objective, res.X)
	}
	if res.X[yA] != 1 || res.X[x] != 1 || res.X[sA] != 1 || res.X[sB] != 0 {
		t.Errorf("x = %v", res.X)
	}
}

func TestNodeLimit(t *testing.T) {
	// A deliberately fractional instance with a node budget of 1 must
	// report NodeLimit (possibly with a heuristic incumbent).
	rng := rand.New(rand.NewSource(3))
	p := bip.New()
	r := p.AddRow(math.Inf(-1), 7.5)
	for i := 0; i < 12; i++ {
		p.AddBinary(-(1 + rng.Float64()), lp.Entry{Row: r, Coef: 1 + rng.Float64()})
	}
	res, err := p.Solve(bip.Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bip.NodeLimit && res.Status != bip.Optimal {
		t.Errorf("status = %v", res.Status)
	}
}

func TestRandomKnapsacksAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(6)
		weights := make([]float64, n)
		values := make([]float64, n)
		cap := 0.0
		for i := 0; i < n; i++ {
			weights[i] = 1 + rng.Float64()*5
			values[i] = 1 + rng.Float64()*10
			cap += weights[i]
		}
		cap *= 0.4

		p := bip.New()
		r := p.AddRow(math.Inf(-1), cap)
		for i := 0; i < n; i++ {
			p.AddBinary(-values[i], lp.Entry{Row: r, Coef: weights[i]})
		}
		res, err := p.Solve(bip.Options{})
		if err != nil {
			t.Fatal(err)
		}

		// Brute force.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w, v := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += weights[i]
					v += values[i]
				}
			}
			if w <= cap && v > best {
				best = v
			}
		}
		if math.Abs(-res.Objective-best) > 1e-5 {
			t.Fatalf("trial %d: bip %v, brute force %v", trial, -res.Objective, best)
		}
	}
}

func TestRandomSetPartitionAgainstBruteForce(t *testing.T) {
	// Random instances with the NoSE BIP structure: queries pick one
	// plan, plans imply indexes, indexes carry costs.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		nq := 2 + rng.Intn(2)
		ni := 2 + rng.Intn(2)
		np := 2 + rng.Intn(2) // plans per query

		idxCost := make([]float64, ni)
		for i := range idxCost {
			idxCost[i] = rng.Float64() * 5
		}
		type planDef struct {
			cost float64
			uses []int
		}
		plans := make([][]planDef, nq)
		for q := range plans {
			plans[q] = make([]planDef, np)
			for k := range plans[q] {
				pd := planDef{cost: 1 + rng.Float64()*9}
				for i := 0; i < ni; i++ {
					if rng.Float64() < 0.4 {
						pd.uses = append(pd.uses, i)
					}
				}
				plans[q][k] = pd
			}
		}

		// BIP formulation.
		p := bip.New()
		idxVar := make([]int, ni)
		linkRows := make([][]int, nq) // per (q, plan): rows
		for i := 0; i < ni; i++ {
			idxVar[i] = -1
		}
		idxRowEntries := map[int][]lp.Entry{}
		planVar := make([][]int, nq)
		for q := 0; q < nq; q++ {
			row := p.AddRow(1, 1)
			planVar[q] = make([]int, np)
			linkRows[q] = nil
			for k := 0; k < np; k++ {
				entries := []lp.Entry{{Row: row, Coef: 1}}
				var links []int
				for range plans[q][k].uses {
					lr := p.AddRow(math.Inf(-1), 0)
					links = append(links, lr)
					entries = append(entries, lp.Entry{Row: lr, Coef: 1})
				}
				planVar[q][k] = p.AddBinary(plans[q][k].cost, entries...)
				for li, i := range plans[q][k].uses {
					idxRowEntries[i] = append(idxRowEntries[i], lp.Entry{Row: links[li], Coef: -1})
				}
			}
		}
		for i := 0; i < ni; i++ {
			idxVar[i] = p.AddBinary(idxCost[i], idxRowEntries[i]...)
		}

		res, err := p.Solve(bip.Options{})
		if err != nil {
			t.Fatal(err)
		}

		// Brute force over index subsets; each query takes its
		// cheapest plan whose indexes are all present.
		best := math.Inf(1)
		for mask := 0; mask < 1<<ni; mask++ {
			total := 0.0
			for i := 0; i < ni; i++ {
				if mask&(1<<i) != 0 {
					total += idxCost[i]
				}
			}
			feasible := true
			for q := 0; q < nq && feasible; q++ {
				bestPlan := math.Inf(1)
				for k := 0; k < np; k++ {
					ok := true
					for _, i := range plans[q][k].uses {
						if mask&(1<<i) == 0 {
							ok = false
							break
						}
					}
					if ok && plans[q][k].cost < bestPlan {
						bestPlan = plans[q][k].cost
					}
				}
				if math.IsInf(bestPlan, 1) {
					feasible = false
				} else {
					total += bestPlan
				}
			}
			if feasible && total < best {
				best = total
			}
		}
		if math.Abs(res.Objective-best) > 1e-5 {
			t.Fatalf("trial %d: bip %v, brute force %v", trial, res.Objective, best)
		}
		_ = planVar
		_ = idxVar
	}
}

func TestIncumbentSeeding(t *testing.T) {
	// Seeding a feasible incumbent lets a one-node budget return it.
	p := bip.New()
	r := p.AddRow(1, 1)
	a := p.AddBinary(5, lp.Entry{Row: r, Coef: 1})
	b := p.AddBinary(3, lp.Entry{Row: r, Coef: 1})
	seed := make([]float64, p.NumCols())
	seed[a] = 1 // feasible but suboptimal
	res, err := p.Solve(bip.Options{Incumbent: seed, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasSolution {
		t.Fatal("seeded incumbent lost")
	}
	// The search still finds the optimum (b).
	if res.Objective > 3+1e-9 {
		t.Errorf("objective = %v, want 3", res.Objective)
	}
	_ = b

	// An infeasible seed is ignored gracefully.
	bad := make([]float64, p.NumCols())
	bad[a], bad[b] = 1, 1 // violates the equality
	res, err = p.Solve(bip.Options{Incumbent: bad})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bip.Optimal || res.Objective > 3+1e-9 {
		t.Errorf("status %v objective %v", res.Status, res.Objective)
	}

	// A wrong-length seed is ignored.
	res, err = p.Solve(bip.Options{Incumbent: []float64{1}})
	if err != nil || !res.HasSolution {
		t.Errorf("short seed broke the solve: %v %v", res, err)
	}
}

// TestBoundBracketsOptimum: a solve stopped at the node limit reports a
// bound that, with its incumbent, brackets the optimum a full solve
// finds, and a relative gap consistent with the two; a solve that ran to
// completion reports its own objective as the bound and no gap.
func TestBoundBracketsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	truncated := 0
	for trial := 0; trial < 40; trial++ {
		p := bip.New()
		r := p.AddRow(math.Inf(-1), 9.5)
		for i := 0; i < 14; i++ {
			p.AddBinary(-(1 + rng.Float64()), lp.Entry{Row: r, Coef: 1 + rng.Float64()})
		}
		full, err := p.Solve(bip.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Status != bip.Optimal || full.Bound != full.Objective || full.Gap() != 0 {
			t.Fatalf("trial %d: full solve status %v objective %v bound %v gap %v", trial, full.Status, full.Objective, full.Bound, full.Gap())
		}
		cut, err := p.Solve(bip.Options{MaxNodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if cut.Status != bip.NodeLimit || !cut.HasSolution {
			continue
		}
		truncated++
		if cut.Bound > full.Objective+1e-9 || full.Objective > cut.Objective+1e-9 {
			t.Fatalf("trial %d: bound %v, optimum %v, incumbent %v do not nest", trial, cut.Bound, full.Objective, cut.Objective)
		}
		want := (cut.Objective - cut.Bound) / math.Abs(cut.Objective)
		if g := cut.Gap(); g < 0 || math.Abs(g-want) > 1e-12 {
			t.Fatalf("trial %d: gap %v, want %v", trial, g, want)
		}
	}
	if truncated == 0 {
		t.Fatal("no trial was truncated with an incumbent; the test checks nothing")
	}
}

// selectionProgram builds a random plan-selection program in the shape
// internal/search formulates: one choose-one row per query over its
// plans, a link row per (query, index) and index presence columns with
// a maintenance cost. With pin nil it minimizes the total cost; with pin
// set, a leading row holds that cost at or below *pin and the objective
// counts indexes, as the advisor's second phase does.
func selectionProgram(seed int64, pin *float64) *bip.Program {
	rng := rand.New(rand.NewSource(seed))
	p := bip.New()
	costRow := -1
	if pin != nil {
		costRow = p.AddRow(math.Inf(-1), *pin+1e-6)
	}
	price := func(es []lp.Entry, c float64) ([]lp.Entry, float64) {
		if costRow >= 0 {
			return append(es, lp.Entry{Row: costRow, Coef: c}), 0
		}
		return es, c
	}
	indexes := 3 + rng.Intn(4)
	cols := make([]int, indexes)
	for x := range cols {
		es, obj := price(nil, float64(1+rng.Intn(5)))
		if costRow >= 0 {
			obj = 1
		}
		cols[x] = p.AddBinary(obj, es...)
	}
	for q, queries := 0, 3+rng.Intn(4); q < queries; q++ {
		choose := p.AddRow(1, 1)
		for k, plans := 0, 2+rng.Intn(3); k < plans; k++ {
			es := []lp.Entry{{Row: choose, Coef: 1}}
			x := rng.Intn(indexes + 1)
			if x < indexes {
				link := p.AddRow(math.Inf(-1), 0)
				es = append(es, lp.Entry{Row: link, Coef: 1})
				p.AddColEntry(cols[x], link, -1)
			}
			es, obj := price(es, float64(1+rng.Intn(9)))
			p.AddBinary(obj, es...)
		}
	}
	return p
}

// TestRootBasisWarmStartsExtendedProgram: the second phase of a
// two-phase selection starts its root from the first phase's root basis
// and ends as a cold second phase does. A pin at the first phase's
// optimum is satisfied by its root and runs on the primal warm path; a
// pin below the root relaxation's bound cuts that point off and takes
// the counted cold fallback to the same proof of infeasibility.
func TestRootBasisWarmStartsExtendedProgram(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		res1, err := selectionProgram(seed, nil).Solve(bip.Options{})
		if err != nil || !res1.HasSolution {
			t.Fatalf("seed %d: phase 1: %v %v", seed, res1, err)
		}
		if res1.RootBasis == nil {
			t.Fatalf("seed %d: phase 1 kept no root basis", seed)
		}
		for _, pin := range []float64{res1.Objective, -1} {
			reg := obs.NewRegistry()
			warm, err := selectionProgram(seed, &pin).Solve(bip.Options{RootBasis: res1.RootBasis, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := selectionProgram(seed, &pin).Solve(bip.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// The pin's 1e-6 slack lets an incumbent's relaxation sit a
			// hair off its 0-1 point, so the two may report the same count
			// a millionth apart.
			if warm.Status != cold.Status || warm.HasSolution != cold.HasSolution || math.Abs(warm.Objective-cold.Objective) > 1e-5 {
				t.Fatalf("seed %d pin %v: warm %v %v, cold %v %v", seed, pin, warm.Status, warm.Objective, cold.Status, cold.Objective)
			}
			c := reg.Snapshot().Counters
			wantPrimal, wantFallbacks := int64(1), int64(0)
			if pin < 0 {
				wantPrimal, wantFallbacks = 0, 1
			}
			if c["lp.primal_warm_starts"] != wantPrimal || c["lp.warm_fallbacks"] != wantFallbacks || c["lp.cold_solves"] != 0 {
				t.Fatalf("seed %d pin %v: %d primal warm starts, %d fallbacks, %d cold solves; want %d, %d, 0",
					seed, pin, c["lp.primal_warm_starts"], c["lp.warm_fallbacks"], c["lp.cold_solves"], wantPrimal, wantFallbacks)
			}
		}
	}
}

// TestRootBasisKeptWhenRootIntegral: a program whose root relaxation is
// already integral ends at its root and still hands the root's basis on.
func TestRootBasisKeptWhenRootIntegral(t *testing.T) {
	p := bip.New()
	r := p.AddRow(1, 1)
	p.AddBinary(1, lp.Entry{Row: r, Coef: 1})
	p.AddBinary(2, lp.Entry{Row: r, Coef: 1})
	res, err := p.Solve(bip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 0 || res.Objective != 1 || res.RootBasis == nil {
		t.Fatalf("%d nodes, objective %v, root basis %v", res.Nodes, res.Objective, res.RootBasis)
	}
}
