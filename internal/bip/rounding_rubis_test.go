package bip_test

import (
	"bytes"
	"math/rand"
	"regexp"
	"testing"

	"nose/internal/bip"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/service/api"
	"nose/internal/workload"
)

// TestRoundingKeepsRUBiSAnswers: the inputs bench/'s daemon-rubis sends
// — the RUBiS bidding workload with every statement weight jittered by
// ±5 %, 16 variants a seed, seeds 1 to 12, advised at daemon defaults —
// must encode to the same result with the phase-2 bound rounding and
// without it, once the node count is masked: the same schema, the same
// plan for every statement, the same cost to the bit. Rounding only
// drops subtrees whose best is no better than the incumbent, which the
// strict improvement test would have refused anyway; this is the check
// that no tie among equal-count schemas is broken differently either.
func TestRoundingKeepsRUBiSAnswers(t *testing.T) {
	seeds := 12
	if testing.Short() || raceEnabled {
		seeds = 2
	}
	base, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	nodes := regexp.MustCompile(`"nodes": \d+`)
	advise := func(w *workload.Workload, reg *obs.Registry) []byte {
		rec, err := search.Advise(w, search.Options{
			Workers: 1,
			Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery},
			Obs:     reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := api.Encode(api.Advise(w, rec))
		if err != nil {
			t.Fatal(err)
		}
		if !nodes.Match(out) {
			t.Fatal("the encoded result has no nodes field to mask")
		}
		return nodes.ReplaceAll(out, []byte(`"nodes": 0`))
	}
	with, without := obs.NewRegistry(), obs.NewRegistry()
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		for variant := 0; variant < 16; variant++ {
			w := workload.New(base.Graph)
			for _, ws := range base.Statements {
				w.Add(ws.Statement, base.Weight(ws)*(1+0.05*(2*rng.Float64()-1)))
			}
			rounded := advise(w, with)
			restore := bip.SetNoRounding()
			plain := advise(w, without)
			restore()
			if !bytes.Equal(rounded, plain) {
				t.Errorf("seed %d variant %d: the result differs with rounding off:\n%s\nvs\n%s", seed, variant, rounded, plain)
			}
		}
	}
	on, off := with.Snapshot().Counters, without.Snapshot().Counters
	if on["bip.pruned_integral"] == 0 || off["bip.pruned_integral"] != 0 {
		t.Errorf("%d nodes pruned by rounding with it on, %d with it off", on["bip.pruned_integral"], off["bip.pruned_integral"])
	}
	if 2*on["search.phase2.nodes"] > off["search.phase2.nodes"] {
		t.Errorf("phase 2 explored %d nodes with rounding and %d without: less than half saved",
			on["search.phase2.nodes"], off["search.phase2.nodes"])
	}
	if on["search.phase1.nodes"] != off["search.phase1.nodes"] {
		t.Errorf("phase 1 explored %d nodes with rounding and %d without: its objective is a cost, not a count",
			on["search.phase1.nodes"], off["search.phase1.nodes"])
	}
	t.Logf("%d advises: %d → %d nodes", 16*seeds, off["search.nodes"], on["search.nodes"])
}
