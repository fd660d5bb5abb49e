package search_test

import (
	"math"
	"strings"
	"testing"

	"nose/internal/hotel"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

func adviseHotel(t *testing.T, w *workload.Workload, opt search.Options) *search.Recommendation {
	t.Helper()
	rec, err := search.Advise(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestAdviseReadOnlyPicksMaterializedViews(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	q.Label = "GuestsByCity"
	w.Add(q, 1)

	rec := adviseHotel(t, w, search.Options{})
	if rec.Schema.Len() == 0 {
		t.Fatal("empty schema")
	}
	if len(rec.Queries) != 1 {
		t.Fatalf("queries = %d", len(rec.Queries))
	}
	plan := rec.Queries[0].Plan
	// With no updates the optimum is the query's materialized view:
	// one lookup, no client-side steps beyond it.
	if len(plan.Indexes()) != 1 {
		t.Errorf("chosen plan uses %d indexes:\n%s", len(plan.Indexes()), plan)
	}
	// Every index a chosen plan uses must be in the schema.
	for _, x := range plan.Indexes() {
		if rec.Schema.Lookup(x) == nil {
			t.Errorf("plan index %s missing from schema", x)
		}
	}
	if rec.Cost <= 0 {
		t.Errorf("cost = %v", rec.Cost)
	}
	if rec.Stats.Candidates == 0 || rec.Stats.PlanVariables == 0 || rec.Stats.Constraints == 0 {
		t.Errorf("stats not populated: %+v", rec.Stats)
	}
	if rec.Timings.Total <= 0 {
		t.Error("timings not populated")
	}
}

func TestAdviseMinimizesSchemaSize(t *testing.T) {
	// Two queries over the same data; phase 2 must not include column
	// families no chosen plan uses.
	g := hotel.Graph()
	w := workload.New(g)
	w.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 1)
	w.Add(workload.MustParseQuery(g, hotel.PrefixQuery), 1)

	rec := adviseHotel(t, w, search.Options{})
	used := map[string]bool{}
	for _, qr := range rec.Queries {
		for _, x := range qr.Plan.Indexes() {
			used[x.ID()] = true
		}
	}
	for _, x := range rec.Schema.Indexes() {
		if !used[x.ID()] {
			t.Errorf("schema contains unused column family %s", x)
		}
	}
}

func TestAdviseUpdatesConstrainDenormalization(t *testing.T) {
	// With a heavily-weighted update on GuestName, the advisor should
	// avoid storing GuestName in the wide path-spanning view and fetch
	// it separately (normalization pressure, paper §VI).
	g := hotel.Graph()

	runWith := func(updateWeight float64) *search.Recommendation {
		w := workload.New(g)
		w.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 1)
		w.Add(workload.MustParse(g, `UPDATE Guest SET GuestName = ? WHERE Guest.GuestID = ?`), updateWeight)
		return adviseHotel(t, w, search.Options{})
	}

	light := runWith(0.001)
	heavy := runWith(10_000)

	wideStoresName := func(rec *search.Recommendation) bool {
		guestName := g.MustEntity("Guest").Attribute("GuestName")
		for _, x := range rec.Schema.Indexes() {
			if x.Path.Len() > 1 && x.Contains(guestName) {
				return true
			}
		}
		return false
	}
	if !wideStoresName(light) {
		t.Error("light updates: expected denormalized view storing GuestName")
	}
	if wideStoresName(heavy) {
		t.Errorf("heavy updates: GuestName still denormalized\n%s", heavy.Schema)
	}
	// Update recommendations exist for families the update maintains.
	if len(heavy.Updates) == 0 && len(light.Updates) == 0 {
		t.Error("no update recommendations produced")
	}
}

func TestAdviseSpaceConstraint(t *testing.T) {
	g := hotel.Graph()
	unconstrained := workload.New(g)
	unconstrained.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 1)
	free := adviseHotel(t, unconstrained, search.Options{})

	// Tighten the budget below the unconstrained schema size; the
	// advisor must return a smaller (cheaper-to-store) schema.
	budget := free.Schema.TotalSizeBytes() * 0.5
	w2 := workload.New(g)
	w2.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 1)
	constrained := adviseHotel(t, w2, search.Options{SpaceBudgetBytes: budget})
	if constrained.Schema.TotalSizeBytes() > budget*1.001 {
		t.Errorf("schema size %.0f exceeds budget %.0f",
			constrained.Schema.TotalSizeBytes(), budget)
	}
	// The constrained workload must cost at least as much.
	if constrained.Cost < free.Cost-1e-9 {
		t.Errorf("constrained cost %v < unconstrained %v", constrained.Cost, free.Cost)
	}
}

// TestBudgetCutsCountedOnce: search.cuts counts the cut rows of the one
// program an advise formulates, at most three per interval (oversized,
// clique, cover), however many solver phases run on it. At a 20 MB
// budget the hotel workload's program has two.
func TestBudgetCutsCountedOnce(t *testing.T) {
	reg := obs.NewRegistry()
	rec, err := search.Advise(hotelWorkload(t), search.Options{Workers: 1, SpaceBudgetBytes: 2e7, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Stats.Phase2.Ran {
		t.Fatal("phase 2 did not run")
	}
	if cuts := reg.Snapshot().Counters["search.cuts"]; cuts != 2 {
		t.Errorf("search.cuts = %d, want the program's 2 cut rows", cuts)
	}
}

func TestAdviseSupportPlansUseSelectedSchema(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	w.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 1)
	w.Add(workload.MustParse(g, hotel.UpdateStatements[0]), 0.5) // insert reservation
	rec := adviseHotel(t, w, search.Options{})

	sel := func(x *schema.Index) bool { return rec.Schema.Lookup(x) != nil }
	for _, ur := range rec.Updates {
		if rec.Schema.Lookup(ur.Plan.Index) == nil {
			t.Errorf("update recommendation for unselected family %s", ur.Plan.Index)
		}
		for _, sp := range ur.SupportPlans {
			for _, x := range sp.Indexes() {
				if !sel(x) {
					t.Errorf("support plan reads unselected family %s", x)
				}
			}
		}
	}
}

func TestAdviseMixSensitivity(t *testing.T) {
	// The same workload under a read-only and a write-heavy mix must
	// produce different schemas (paper Fig. 12's premise).
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	w.AddMixed(q, map[string]float64{"read": 1, "write": 1})
	upd := workload.MustParse(g, `UPDATE Guest SET GuestName = ? WHERE Guest.GuestID = ?`)
	w.AddMixed(upd, map[string]float64{"read": 0, "write": 5000})

	w.ActiveMix = "read"
	readRec := adviseHotel(t, w, search.Options{})
	w.ActiveMix = "write"
	writeRec := adviseHotel(t, w, search.Options{})

	if readRec.Schema.String() == writeRec.Schema.String() {
		t.Error("schemas identical across mixes; expected write pressure to change the design")
	}
}

func TestAdviseQueryWithoutPlansFails(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	bad := workload.MustParseQuery(g, `SELECT Room.RoomNumber FROM Room WHERE Room.RoomRate > ?`)
	w.Add(bad, 1)
	if _, err := search.Advise(w, search.Options{}); err == nil {
		t.Error("expected error for un-plannable workload")
	}
}

// TestAdviseValidatesWeights: a workload built in Go gets the weight
// check a parsed one does, so a NaN weight is an error naming the
// statement, not a statement silently left out.
func TestAdviseValidatesWeights(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	q.Label = "GuestsByCity"
	w.Add(q, math.NaN())
	if _, err := search.Advise(w, search.Options{}); err == nil || !strings.Contains(err.Error(), "GuestsByCity") {
		t.Errorf("Advise with a NaN weight returned %v, want an error naming GuestsByCity", err)
	}
}

func TestAdviseRespectsPlannerConfig(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	w.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 1)
	rec := adviseHotel(t, w, search.Options{
		Planner: planner.Config{MaxPlansPerQuery: 4},
	})
	if rec.Schema.Len() == 0 {
		t.Fatal("empty schema under tightened planner config")
	}
}

// TestAdviseCoversEveryStatement is the paper's coverage requirement:
// the recommended schema must allow the entire workload to be
// implemented.
func TestAdviseCoversEveryStatement(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	for i, src := range []string{hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery} {
		q := workload.MustParseQuery(g, src)
		q.Label = string(rune('A' + i))
		w.Add(q, 1)
	}
	for _, src := range hotel.UpdateStatements {
		w.Add(workload.MustParse(g, src), 0.1)
	}
	rec := adviseHotel(t, w, search.Options{})
	if len(rec.Queries) != 3 {
		t.Fatalf("plans for %d queries, want 3", len(rec.Queries))
	}
	for _, qr := range rec.Queries {
		for _, x := range qr.Plan.Indexes() {
			if rec.Schema.Lookup(x) == nil {
				t.Errorf("query %s plan uses unselected family", workload.Label(qr.Statement.Statement))
			}
		}
	}
	// Algorithm 1 ran: candidates exist for support queries.
	if rec.Stats.Candidates < rec.Schema.Len() {
		t.Error("stats inconsistent")
	}
}
