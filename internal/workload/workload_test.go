package workload_test

import (
	"testing"

	"nose/internal/hotel"
	"nose/internal/workload"
)

func TestWorkloadQueriesAndUpdates(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	q.Label = "GuestsByCity"
	w.Add(q, 0.6)
	w.Add(workload.MustParse(g, hotel.UpdateStatements[0]), 0.4)

	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(w.Queries()) != 1 || len(w.Updates()) != 1 {
		t.Errorf("queries=%d updates=%d", len(w.Queries()), len(w.Updates()))
	}
	if ws := w.StatementByLabel("GuestsByCity"); ws == nil || ws.Statement != q {
		t.Error("StatementByLabel failed")
	}
	if w.StatementByLabel("nope") != nil {
		t.Error("StatementByLabel returned phantom")
	}
	if workload.Label(q) != "GuestsByCity" {
		t.Errorf("Label = %q", workload.Label(q))
	}
	unlabeled := workload.MustParseQuery(g, hotel.PrefixQuery)
	if workload.Label(unlabeled) != unlabeled.String() {
		t.Error("unlabeled statement should use its text as label")
	}
}

func TestWorkloadMixes(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.PrefixQuery)
	ws := w.AddMixed(q, map[string]float64{"bidding": 0.3, "browsing": 0.7})
	upd := w.Add(workload.MustParse(g, hotel.UpdateStatements[1]), 0.5)
	upd.MixWeights = map[string]float64{"browsing": 0}

	mixes := w.Mixes()
	if len(mixes) != 2 || mixes[0] != "bidding" || mixes[1] != "browsing" {
		t.Errorf("Mixes = %v", mixes)
	}

	if got := ws.WeightIn("bidding"); got != 0.3 {
		t.Errorf("bidding weight = %v", got)
	}
	// The default weight is the lexicographically first mix's, not
	// whichever one map iteration happens to produce.
	for i := 0; i < 50; i++ {
		again := workload.New(g).AddMixed(q, map[string]float64{"browsing": 0.7, "bidding": 0.3, "selling": 0.1})
		if got := again.WeightIn(""); got != 0.3 {
			t.Fatalf("default weight = %v, want bidding's 0.3", got)
		}
	}
	if got := upd.WeightIn("unknown-mix"); got != 0.5 {
		t.Errorf("fallback weight = %v, want 0.5", got)
	}

	// In the browsing mix the delete has weight zero and disappears
	// from Updates().
	w.ActiveMix = "browsing"
	if len(w.Updates()) != 0 {
		t.Error("zero-weight update still listed")
	}
	if len(w.Queries()) != 1 {
		t.Error("query missing under browsing mix")
	}
	if got := w.Weight(ws); got != 0.7 {
		t.Errorf("active-mix weight = %v", got)
	}
}

func TestWorkloadValidateRejectsNegativeWeight(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	w.Add(workload.MustParseQuery(g, hotel.PrefixQuery), -1)
	if err := w.Validate(); err == nil {
		t.Error("expected error for negative weight")
	}
}

func TestOpHelpers(t *testing.T) {
	if workload.Eq.IsRange() {
		t.Error("Eq is not a range op")
	}
	for _, op := range []workload.Op{workload.Gt, workload.Ge, workload.Lt, workload.Le} {
		if !op.IsRange() {
			t.Errorf("%v should be a range op", op)
		}
	}
	if workload.Ge.String() != ">=" || workload.Le.String() != "<=" {
		t.Error("op rendering wrong")
	}
}
