package api_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nose/internal/bip"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/service/api"
	"nose/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestAdviseResultGoldens pins the encoded advise results of the two
// benchmark advisor workloads against files committed before the
// planner stopped building strings (PR 12). bench/'s own byte-compare
// takes its reference from the build under test, so it cannot see plan
// spaces move between commits; these files can. Regenerate with
// -update only for a change that means to move a recommendation.
func TestAdviseResultGoldens(t *testing.T) {
	cases := []struct {
		golden string
		build  func() (*workload.Workload, error)
		opts   search.Options
	}{
		{
			// bench/'s advise-randwork input under benchAdvisorOptions.
			golden: "advise-randwork-f3s42.golden.json",
			build: func() (*workload.Workload, error) {
				return randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
			},
			opts: search.Options{
				Planner:         planner.Config{MaxPlansPerQuery: 16},
				MaxSupportPlans: 4,
				BIP:             bip.Options{MaxNodes: 60, Gap: 0.01},
			},
		},
		{
			// RUBiS bidding under the options nosed gives a bare request.
			golden: "advise-rubis.golden.json",
			build: func() (*workload.Workload, error) {
				w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
				return w, err
			},
			opts: search.Options{
				Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery},
			},
		},
	}
	for _, tc := range cases {
		path := filepath.Join("..", "..", "..", "testdata", tc.golden)
		for _, workers := range []int{1, 4} {
			w, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.opts
			opts.Workers = workers
			rec, err := search.Advise(w, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.golden, workers, err)
			}
			got, err := api.Encode(api.Advise(w, rec))
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden && workers == 1 {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s workers=%d: encoded result drifted from the committed golden (%d vs %d bytes)",
					tc.golden, workers, len(got), len(want))
			}
		}
	}
}
