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

// randomSelectionProgram builds a random instance with the NoSE BIP
// structure: choose rows, plan variables linked to index presence
// variables, index costs.
func randomSelectionProgram(rng *rand.Rand) *bip.Program {
	nq := 3 + rng.Intn(3)
	ni := 3 + rng.Intn(3)
	np := 2 + rng.Intn(3)

	p := bip.New()
	idxRowEntries := make([][]lp.Entry, ni)
	for q := 0; q < nq; q++ {
		row := p.AddRow(1, 1)
		for k := 0; k < np; k++ {
			entries := []lp.Entry{{Row: row, Coef: 1}}
			var links []int
			var uses []int
			for i := 0; i < ni; i++ {
				if rng.Float64() < 0.4 {
					lr := p.AddRow(math.Inf(-1), 0)
					links = append(links, lr)
					uses = append(uses, i)
					entries = append(entries, lp.Entry{Row: lr, Coef: 1})
				}
			}
			p.AddBinary(1+rng.Float64()*9, entries...)
			for li, i := range uses {
				idxRowEntries[i] = append(idxRowEntries[i], lp.Entry{Row: links[li], Coef: -1})
			}
		}
	}
	for i := 0; i < ni; i++ {
		p.AddBinary(rng.Float64()*5, idxRowEntries[i]...)
	}
	return p
}

// TestWorkersInvariance: the solve must return bit-identical objective,
// solution vector, status, and node count for every worker count —
// batch composition is fixed-width, so the trajectory never depends on
// Workers — and the same bip.* and lp.* counters, among them the
// columns reduced-cost fixing fixed and its re-derivations, which the
// trials must exercise.
func TestWorkersInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var fixed, refixes int64
	for trial := 0; trial < 15; trial++ {
		p := randomSelectionProgram(rng)
		var base *bip.Result
		var baseCounters map[string]int64
		for _, workers := range []int{1, 2, 8, 100} {
			reg := obs.NewRegistry()
			res, err := p.Solve(bip.Options{Workers: workers, Obs: reg})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			counters := reg.Snapshot().Counters
			if base == nil {
				base, baseCounters = res, counters
				fixed += counters["bip.rc_fixed"]
				refixes += counters["bip.rc_refixes"]
				continue
			}
			if !reflect.DeepEqual(counters, baseCounters) {
				t.Errorf("trial %d workers %d: counters %v, %v at one worker", trial, workers, counters, baseCounters)
			}
			if res.Status != base.Status || res.HasSolution != base.HasSolution {
				t.Fatalf("trial %d workers %d: status %v/%v vs %v/%v",
					trial, workers, res.Status, res.HasSolution, base.Status, base.HasSolution)
			}
			if res.Nodes != base.Nodes {
				t.Errorf("trial %d workers %d: nodes %d vs %d", trial, workers, res.Nodes, base.Nodes)
			}
			if math.Float64bits(res.Objective) != math.Float64bits(base.Objective) {
				t.Errorf("trial %d workers %d: objective %v vs %v (not bit-identical)",
					trial, workers, res.Objective, base.Objective)
			}
			for j := range res.X {
				if math.Float64bits(res.X[j]) != math.Float64bits(base.X[j]) {
					t.Errorf("trial %d workers %d: x[%d] %v vs %v",
						trial, workers, j, res.X[j], base.X[j])
					break
				}
			}
		}
	}
	if fixed == 0 || refixes == 0 {
		t.Errorf("reduced-cost fixing fixed %d columns with %d re-derivations: the comparison never saw it", fixed, refixes)
	}
	t.Logf("%d columns fixed by reduced cost, %d re-derivations", fixed, refixes)
}

// TestWorkersInvarianceUnderLimits: worker-count invariance must hold
// even when the search stops early on a node budget or an optimality
// gap, because those cutoffs are part of the deterministic trajectory.
func TestWorkersInvarianceUnderLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, opt := range []bip.Options{
		{MaxNodes: 5},
		{Gap: 0.05},
		{MaxNodes: 3, Gap: 0.02},
	} {
		p := randomSelectionProgram(rng)
		o1 := opt
		o1.Workers = 1
		a, err := p.Solve(o1)
		if err != nil {
			t.Fatal(err)
		}
		o8 := opt
		o8.Workers = 8
		b, err := p.Solve(o8)
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != b.Status || a.Nodes != b.Nodes ||
			a.HasSolution != b.HasSolution ||
			(a.HasSolution && math.Float64bits(a.Objective) != math.Float64bits(b.Objective)) {
			t.Errorf("opts %+v: diverged: %+v vs %+v", opt, a, b)
		}
	}
}

// TestParallelMatchesBruteForce: the parallel path must still be exact.
func TestParallelMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(6)
		weights := make([]float64, n)
		values := make([]float64, n)
		capacity := 0.0
		for i := 0; i < n; i++ {
			weights[i] = 1 + rng.Float64()*5
			values[i] = 1 + rng.Float64()*10
			capacity += weights[i]
		}
		capacity *= 0.4

		p := bip.New()
		r := p.AddRow(math.Inf(-1), capacity)
		for i := 0; i < n; i++ {
			p.AddBinary(-values[i], lp.Entry{Row: r, Coef: weights[i]})
		}
		res, err := p.Solve(bip.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}

		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w, v := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += weights[i]
					v += values[i]
				}
			}
			if w <= capacity && v > best {
				best = v
			}
		}
		if math.Abs(-res.Objective-best) > 1e-5 {
			t.Fatalf("trial %d: bip %v, brute force %v", trial, -res.Objective, best)
		}
	}
}
