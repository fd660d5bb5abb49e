package lp_test

import (
	"testing"

	"nose/internal/bip"
	"nose/internal/lp"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/workload"
)

// TestRefactorMatchesOracle runs the two benchmark advises with a hook
// at the top of every refactorization — the all-artificial load of each
// cold solve, the basis every SolveFrom loads and each rebuild in the
// middle of iterate or dualIterate — and has each basis refactorized by
// the retained dense-scan oracle and by the production code, which must
// agree to the bit. Workers is 1: branch and bound solves the same
// relaxations at any worker count, and one goroutine lets the hook's
// re-entry guard be a plain flag.
func TestRefactorMatchesOracle(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*workload.Workload, error)
		opts  search.Options
	}{
		{
			name: "rubis",
			build: func() (*workload.Workload, error) {
				w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
				return w, err
			},
			opts: search.Options{
				Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery},
			},
		},
		{
			name: "randwork-f3s42",
			build: func() (*workload.Workload, error) {
				return randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
			},
			opts: search.Options{
				Planner:         planner.Config{MaxPlansPerQuery: 16},
				MaxSupportPlans: 4,
				BIP:             bip.Options{MaxNodes: 60, Gap: 0.01},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			checked, inside := 0, false
			restore := lp.SetRefactorHook(func(s *lp.Solver) {
				if inside {
					return // the check's own two refactorizations
				}
				inside = true
				defer func() { inside = false }()
				checked++
				if err := lp.CheckRefactor(s); err != nil {
					t.Errorf("refactorization %d: %v", checked, err)
				}
			})
			defer restore()
			opts := tc.opts
			opts.Workers = 1
			opts.Obs = obs.NewRegistry()
			if _, err := search.Advise(w, opts); err != nil {
				t.Fatal(err)
			}
			if counted := opts.Obs.Snapshot().Counters["lp.refactors"]; counted == 0 || int64(checked) != counted {
				t.Errorf("checked %d refactorizations, the advise counted %d", checked, counted)
			}
		})
	}
}
