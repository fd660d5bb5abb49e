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
	nodes := regexp.MustCompile(`"nodes": \d+`)
	advise := func(w *workload.Workload, reg *obs.Registry) []byte {
		out := adviseDaemonDefaults(t, w, reg)
		if !nodes.Match(out) {
			t.Fatal("the encoded result has no nodes field to mask")
		}
		return nodes.ReplaceAll(out, []byte(`"nodes": 0`))
	}
	with, without := obs.NewRegistry(), obs.NewRegistry()
	forDaemonRUBiSInputs(t, seeds, func(seed, variant int, w *workload.Workload) {
		rounded := advise(w, with)
		restore := bip.SetNoRounding()
		plain := advise(w, without)
		restore()
		if !bytes.Equal(rounded, plain) {
			t.Errorf("seed %d variant %d: the result differs with rounding off:\n%s\nvs\n%s", seed, variant, rounded, plain)
		}
	})
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
	t.Logf("%d advises: %d → %d nodes", 16*seeds, off["bip.nodes"], on["bip.nodes"])
}

// forDaemonRUBiSInputs calls fn with the inputs bench/'s daemon-rubis
// sends for seeds 1 to seeds: the RUBiS bidding workload with every
// statement weight jittered by ±5 %, 16 variants a seed.
func forDaemonRUBiSInputs(t *testing.T, seeds int, fn func(seed, variant int, w *workload.Workload)) {
	t.Helper()
	base, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		for variant := 0; variant < 16; variant++ {
			w := workload.New(base.Graph)
			for _, ws := range base.Statements {
				w.Add(ws.Statement, base.Weight(ws)*(1+0.05*(2*rng.Float64()-1)))
			}
			fn(seed, variant, w)
		}
	}
}

// adviseDaemonDefaults advises w at daemon defaults on one worker,
// counting into reg, and returns the encoded result.
func adviseDaemonDefaults(t *testing.T, w *workload.Workload, reg *obs.Registry) []byte {
	t.Helper()
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
	return out
}

// TestFixingKeepsRUBiSAnswers: the same inputs must encode to the same
// bytes with reduced-cost fixing and without it, node counts included:
// the schema, every plan and the cost to the bit, and the very tree. A
// fixed column cannot take its other value below the cutoff, so on
// RUBiS, whose greedy start is already optimal, the fixes change no
// node's bound and only the LP work falls.
func TestFixingKeepsRUBiSAnswers(t *testing.T) {
	seeds := 12
	if testing.Short() || raceEnabled {
		seeds = 2
	}
	with, without := obs.NewRegistry(), obs.NewRegistry()
	forDaemonRUBiSInputs(t, seeds, func(seed, variant int, w *workload.Workload) {
		fixed := adviseDaemonDefaults(t, w, with)
		restore := bip.SetNoFixing()
		plain := adviseDaemonDefaults(t, w, without)
		restore()
		if !bytes.Equal(fixed, plain) {
			t.Errorf("seed %d variant %d: the result differs with fixing off:\n%s\nvs\n%s", seed, variant, fixed, plain)
		}
	})
	on, off := with.Snapshot().Counters, without.Snapshot().Counters
	if on["bip.rc_fixed"] == 0 || off["bip.rc_fixed"] != 0 || off["bip.rc_refixes"] != 0 {
		t.Errorf("%d columns fixed with fixing on, %d (%d re-derivations) with it off",
			on["bip.rc_fixed"], off["bip.rc_fixed"], off["bip.rc_refixes"])
	}
	if on["bip.nodes"] != off["bip.nodes"] || on["lp.solves"] != off["lp.solves"] {
		t.Errorf("%d nodes and %d LP solves with fixing, %d and %d without", on["bip.nodes"], on["lp.solves"], off["bip.nodes"], off["lp.solves"])
	}
	if 10*on["lp.pivots"] > 6*off["lp.pivots"] {
		t.Errorf("%d pivots with fixing and %d without: less than 40 %% saved", on["lp.pivots"], off["lp.pivots"])
	}
	t.Logf("%d advises: %d columns fixed, %d re-derivations; %d → %d pivots (%d → %d dual) over %d nodes",
		16*seeds, on["bip.rc_fixed"], on["bip.rc_refixes"], off["lp.pivots"], on["lp.pivots"],
		off["lp.dual_pivots"], on["lp.dual_pivots"], on["bip.nodes"])
}
