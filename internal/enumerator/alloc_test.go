package enumerator_test

import (
	"testing"

	"nose/internal/enumerator"
	"nose/internal/randwork"
)

// TestEnumerateWorkloadAllocationBudget keeps each distinct query
// enumerated once, and enumeration allocating only what it keeps. On
// the benchmark's random workload (factor 3, seed 42) Algorithm 1 asks
// for 3,253 enumerations over 485 signatures; enumerating every request
// afresh cost 1.62 M allocations, the memo over interned candidates
// 284 k (713 k without the top-level memo, 337 k without the
// view-family one), and keys built in reused buffers, sub-queries built
// in reused storage, structures looked up before they are built and
// lists deduplicated by candidate number 43.6 k (go1.24). The budget is
// 1.3 times that, so a per-request string, map or query fails here
// rather than in a profile.
func TestEnumerateWorkloadAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w, err := randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 56_600
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := enumerator.EnumerateWorkload(w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("EnumerateWorkload made %.0f allocations, budget %d", allocs, budget)
	}
	t.Logf("EnumerateWorkload: %.0f allocations (budget %d)", allocs, budget)
}
