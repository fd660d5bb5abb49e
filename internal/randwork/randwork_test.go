package randwork_test

import (
	"testing"

	"nose/internal/bip"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/search"
	"nose/internal/workload"
)

func TestGenerateShape(t *testing.T) {
	w, err := randwork.Generate(randwork.Config{Factor: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Graph.Entities()); got != 8 {
		t.Errorf("entities = %d, want 8", got)
	}
	if got := len(w.Queries()); got != 18 {
		t.Errorf("queries = %d, want 18", got)
	}
	if got := len(w.Updates()); got != 7 {
		t.Errorf("updates = %d, want 7", got)
	}
	// Every query carries at least one equality predicate.
	for _, ws := range w.Queries() {
		q := ws.Statement.(*workload.Query)
		if len(q.EqualityPredicates()) == 0 {
			t.Errorf("query %s has no equality predicate", q.Label)
		}
	}
}

func TestGenerateScalesWithFactor(t *testing.T) {
	w, err := randwork.Generate(randwork.Config{Factor: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Graph.Entities()); got != 24 {
		t.Errorf("entities = %d, want 24", got)
	}
	if got := len(w.Queries()); got != 54 {
		t.Errorf("queries = %d, want 54", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := randwork.Generate(randwork.Config{Factor: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := randwork.Generate(randwork.Config{Factor: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Statements) != len(b.Statements) {
		t.Fatal("statement counts differ")
	}
	for i := range a.Statements {
		if a.Statements[i].Statement.String() != b.Statements[i].Statement.String() {
			t.Fatalf("statement %d differs across identical seeds", i)
		}
	}
	c, err := randwork.Generate(randwork.Config{Factor: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Statements {
		if a.Statements[i].Statement.String() != c.Statements[i].Statement.String() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

// TestAdvisorHandlesRandomWorkload is the Fig. 13 smoke test: the full
// advisor pipeline completes on a factor-1 random workload.
func TestAdvisorHandlesRandomWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("advisor run on random workload is slow")
	}
	w, err := randwork.Generate(randwork.Config{Factor: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := search.Advise(w, search.Options{
		Planner:         planner.Config{MaxPlansPerQuery: 12},
		MaxSupportPlans: 4,
		BIP:             bip.Options{MaxNodes: 20, Gap: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schema.Len() == 0 {
		t.Error("empty schema")
	}
	if len(rec.Queries) != len(w.Queries()) {
		t.Errorf("plans for %d of %d queries", len(rec.Queries), len(w.Queries()))
	}
	if rec.Timings.Total <= 0 || rec.Timings.BIPSolving <= 0 {
		t.Errorf("timings not populated: %+v", rec.Timings)
	}
}
