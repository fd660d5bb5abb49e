package search_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nose/internal/baselines"
	"nose/internal/bip"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/workload"
)

// TestAdvisorCountersPinned pins every deterministic counter of five
// advises, each run alone into a registry of its own at one and at two
// workers: the RUBiS bidding mix at the daemon's defaults, and under a
// 12 MB space budget that binds; randwork factor 3 seed 42 at bench's
// advise-randwork options; the three-phase hotel series and bidding's
// Normalized baseline advised pinned, both at the daemon's defaults.
// Between them they run both
// phases, a budget with its cuts, a joint series program and a pinned
// schema, so every enumerator, planner, search, bip and lp counter the
// advisor records is exercised; the pinned schema is evaluated, not
// solved, so it records no bip, lp or phase-1 counter. A change that moves where a counter is
// recorded but not what the advisor does leaves every line as it is.
// Regenerate, only for a change that means to move a count, with:
//
//	go test ./internal/search -run TestAdvisorCountersPinned -update
func TestAdvisorCountersPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("ten advises: too slow under the race detector; TestAdviseWorkerInvariance covers the race")
	}
	base, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	base.ActiveMix = rubis.MixBidding
	bidding := workload.New(base.Graph)
	for _, ws := range base.Statements {
		bidding.Add(ws.Statement, base.Weight(ws))
	}
	normalized, err := baselines.Normalized(bidding)
	if err != nil {
		t.Fatal(err)
	}
	randw, err := randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	hotelPhases := loadPhasedHotel(t)

	daemon := search.Options{Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery}}
	budgeted := daemon
	budgeted.SpaceBudgetBytes = 12e6
	bench := search.Options{
		Planner:         planner.Config{MaxPlansPerQuery: 16},
		MaxSupportPlans: 4,
		BIP:             bip.Options{MaxNodes: 60, Gap: 0.01},
	}
	runs := []struct {
		name string
		run  func(opt search.Options) error
		opt  search.Options
	}{
		{"rubis-bidding", func(opt search.Options) error { _, err := search.Advise(bidding, opt); return err }, daemon},
		{"rubis-bidding-12MB", func(opt search.Options) error { _, err := search.Advise(bidding, opt); return err }, budgeted},
		{"randwork-f3-s42", func(opt search.Options) error { _, err := search.Advise(randw, opt); return err }, bench},
		{"hotel-phases", func(opt search.Options) error { _, err := search.AdviseSeries(hotelPhases, opt); return err }, daemon},
		{"rubis-bidding-normalized", func(opt search.Options) error {
			_, err := search.AdvisePinned(bidding, normalized, opt)
			return err
		}, daemon},
	}
	var got strings.Builder
	for _, r := range runs {
		for _, workers := range []int{1, 2} {
			reg := obs.NewRegistry()
			opt := r.opt
			opt.Workers, opt.Obs = workers, reg
			if err := r.run(opt); err != nil {
				t.Fatalf("%s at %d workers: %v", r.name, workers, err)
			}
			counters := reg.Snapshot().Counters
			names := make([]string, 0, len(counters))
			for name := range counters {
				names = append(names, name)
			}
			slices.Sort(names)
			for _, name := range names {
				fmt.Fprintf(&got, "%s/w%d %s=%d\n", r.name, workers, name, counters[name])
			}
		}
	}
	golden := filepath.Join("testdata", "advisor-counters.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for _, l := range wantLines {
			if !slices.Contains(gotLines, l) {
				t.Errorf("pinned %q, not counted", l)
			}
		}
		for _, l := range gotLines {
			if !slices.Contains(wantLines, l) {
				t.Errorf("counted %q, not pinned", l)
			}
		}
	}
}
