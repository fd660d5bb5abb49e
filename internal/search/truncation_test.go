package search_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nose/internal/bip"
	"nose/internal/hotel"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/search"
	"nose/internal/workload"
)

// TestTruncatedSolveIsReported: a solve stopped at the node limit must
// say so — in Stats, in the registry -solver-stats prints from, and on
// the solve spans — with the gap its incumbent may be off by, identical
// at every worker count; a workload solved to completion reports optimal
// and no gap.
func TestTruncatedSolveIsReported(t *testing.T) {
	random, err := randwork.Generate(randwork.Config{Factor: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	advise := func(w *workload.Workload, maxNodes, workers int) (*search.Recommendation, *obs.Snapshot, string) {
		reg, tr := obs.NewRegistry(), obs.NewTracer()
		rec, err := search.Advise(w, search.Options{
			Workers: workers, Obs: reg, Trace: tr,
			BIP: bip.Options{MaxNodes: maxNodes},
		})
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := tr.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return rec, reg.Snapshot(), trace.String()
	}

	cut, snap, trace := advise(random, 2, 1)
	p1 := cut.Stats.Phase1
	if !p1.Ran || p1.Status != bip.NodeLimit || !(p1.Gap > 0 && p1.Gap < 1) {
		t.Fatalf("phase 1 at 2 nodes: %+v, want a truncated solve with a gap in (0, 1)", p1)
	}
	if snap.Counters["search.phase1.solves"] != 1 || snap.Counters["search.phase1.node_limit"] != 1 ||
		snap.Gauges["search.phase1.gap"] != p1.Gap {
		t.Errorf("registry: solves %d, node_limit %d, gap %v; Stats has gap %v",
			snap.Counters["search.phase1.solves"], snap.Counters["search.phase1.node_limit"],
			snap.Gauges["search.phase1.gap"], p1.Gap)
	}
	if stats := snap.FormatSolverStats(); !strings.Contains(stats, "phase 1 solves           1 (1 stopped at the node limit, mean relative gap ") {
		t.Errorf("-solver-stats does not report the truncation:\n%s", stats)
	}
	if !strings.Contains(trace, `"status":"node-limit"`) || !strings.Contains(trace, `"gap":`) {
		t.Errorf("solve spans carry no status or gap:\n%s", trace)
	}
	if again, _, _ := advise(random, 2, 4); again.Stats.Phase1 != p1 || again.Stats.Phase2 != cut.Stats.Phase2 {
		t.Errorf("workers=4: %+v / %+v, workers=1: %+v / %+v", again.Stats.Phase1, again.Stats.Phase2, p1, cut.Stats.Phase2)
	}

	g := hotel.Graph()
	small := workload.New(g)
	small.Add(workload.MustParse(g, hotel.ExampleQuery), 1)
	small.Add(workload.MustParse(g, hotel.UpdateStatements[0]), 0.5)
	full, snap, _ := advise(small, 0, 1)
	for i, s := range []search.Solve{full.Stats.Phase1, full.Stats.Phase2} {
		if !s.Ran || s.Status != bip.Optimal || s.Gap != 0 {
			t.Errorf("phase %d at the default budget: %+v, want optimal with no gap", i+1, s)
		}
	}
	if stats := snap.FormatSolverStats(); !strings.Contains(stats, "phase 1 solves           1 (proven optimal)") {
		t.Errorf("-solver-stats on a complete solve:\n%s", stats)
	}
}

// TestBudgetedAdviseSaysWhyItFindsNothing: randwork factor 1 seed 5 at
// the benchmark's advisor options, under half its unbudgeted schema's
// size, ends phase 1 at the node limit with no schema, because the greedy
// start takes each query's cheapest plan whatever it stores and branch
// and bound refuses it as its seed. The error must say so: that the
// search started with no incumbent, and the greedy start's size against
// the budget. A greedy start that respects the budget makes the advise
// succeed, which passes too.
func TestBudgetedAdviseSaysWhyItFindsNothing(t *testing.T) {
	w, err := randwork.Generate(randwork.Config{Factor: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt := search.Options{
		Planner:         planner.Config{MaxPlansPerQuery: 16},
		MaxSupportPlans: 4,
		BIP:             bip.Options{MaxNodes: 60, Gap: 0.01},
	}
	free, err := search.Advise(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.SpaceBudgetBytes = free.Schema.TotalSizeBytes() / 2
	rec, err := search.Advise(w, opt)
	if err == nil {
		if size := rec.Schema.TotalSizeBytes(); size > opt.SpaceBudgetBytes {
			t.Fatalf("schema of %.0f B under a budget of %.0f B", size, opt.SpaceBudgetBytes)
		}
		t.Logf("the advise found a schema under the budget; nothing to explain")
		return
	}
	budget := fmt.Sprintf("against a space budget of %.1f MB", opt.SpaceBudgetBytes/1e6)
	for _, want := range []string{"no feasible schema", "started with no incumbent", "greedy start's schema taking ", budget} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	t.Log(err)
}
