package search_test

import (
	"errors"
	"strings"
	"testing"

	"nose/internal/baselines"
	"nose/internal/enumerator"
	"nose/internal/obs"
	"nose/internal/rubis"
	"nose/internal/search"
)

// TestPinnedAdviseIsEvaluated: a baseline is the advisor's program
// evaluated at the pinned schema, not solved. Advising either RUBiS
// baseline records no bip, lp or phase-1 counter and reports no solver
// phase; under a space budget below the pool's size the one point there
// is breaks the budget, and the error says the program is infeasible.
func TestPinnedAdviseIsEvaluated(t *testing.T) {
	g := rubis.Graph(rubis.DefaultConfig())
	w, _, err := rubis.Workload(g)
	if err != nil {
		t.Fatal(err)
	}
	w.ActiveMix = rubis.MixBidding
	for _, base := range []struct {
		name string
		pool func() (*enumerator.Pool, error)
	}{
		{"Normalized", func() (*enumerator.Pool, error) { return baselines.Normalized(w) }},
		{"Expert", func() (*enumerator.Pool, error) { return baselines.ExpertRUBiS(g) }},
	} {
		pool, err := base.pool()
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		rec, err := search.AdvisePinned(w, pool, search.Options{Workers: 1, Obs: reg})
		if err != nil {
			t.Fatalf("%s: %v", base.name, err)
		}
		for name := range reg.Snapshot().Counters {
			if strings.HasPrefix(name, "bip.") || strings.HasPrefix(name, "lp.") || strings.HasPrefix(name, "search.phase1.") {
				t.Errorf("%s: counter %s recorded: the baseline was solved", base.name, name)
			}
		}
		if rec.Stats.Phase1.Ran || rec.Stats.Phase2.Ran {
			t.Errorf("%s: a solver phase ran: %+v", base.name, rec.Stats)
		}
		if got := rec.Schema.Len(); got != pool.Len() {
			t.Errorf("%s: %d families recommended, want the pool's %d", base.name, got, pool.Len())
		}

		size := 0.0
		for _, x := range pool.Indexes() {
			size += x.SizeBytes()
		}
		_, err = search.AdvisePinned(w, pool, search.Options{Workers: 1, SpaceBudgetBytes: size / 2})
		if !errors.Is(err, search.ErrInfeasible) {
			t.Errorf("%s under a budget of half its %.1f MB: err %v, want one wrapping search.ErrInfeasible", base.name, size/1e6, err)
		}
	}
}
