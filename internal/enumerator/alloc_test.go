package enumerator_test

import (
	"testing"

	"nose/internal/enumerator"
	"nose/internal/randwork"
)

// TestEnumerateWorkloadAllocationBudget keeps each distinct query
// enumerated once. On the benchmark's random workload (factor 3, seed
// 42) Algorithm 1 asks for 3,253 enumerations over 485 signatures;
// enumerating every request afresh cost 1.62 M allocations, the memo
// over interned candidates 284 k (713 k without the top-level memo,
// 337 k without the view-family one). The budget is 1.3 times the
// measured value, so a request that goes back to being enumerated per
// item fails here rather than in a profile.
func TestEnumerateWorkloadAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w, err := randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 370_000
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := enumerator.EnumerateWorkload(w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("EnumerateWorkload made %.0f allocations, budget %d", allocs, budget)
	}
}
