package rubis_test

import (
	"testing"

	"nose/internal/backend"
	"nose/internal/model"
	"nose/internal/rubis"
	"nose/internal/workload"
)

func tinyConfig() rubis.Config { return rubis.Config{Users: 300, Seed: 7} }

func TestGraphShape(t *testing.T) {
	g := rubis.Graph(tinyConfig())
	if got := len(g.Entities()); got != 8 {
		t.Errorf("entities = %d, want 8", got)
	}
	edges := 0
	for _, e := range g.Entities() {
		edges += len(e.Edges())
	}
	if edges != 22 { // eleven relationships, two directions each
		t.Errorf("edge directions = %d, want 22", edges)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionsParse(t *testing.T) {
	g := rubis.Graph(tinyConfig())
	txns, err := rubis.Transactions(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 14 {
		t.Fatalf("transactions = %d, want 14", len(txns))
	}
	writes := 0
	for _, txn := range txns {
		if len(txn.Statements) == 0 {
			t.Errorf("%s has no statements", txn.Name)
		}
		if txn.HasWrites {
			writes++
		}
	}
	if writes != 5 { // StoreBuyNow, StoreBid, StoreComment, RegisterItem, RegisterUser
		t.Errorf("write transactions = %d, want 5", writes)
	}
}

func TestWorkloadMixWeights(t *testing.T) {
	g := rubis.Graph(tinyConfig())
	w, txns, err := rubis.Workload(g)
	if err != nil {
		t.Fatal(err)
	}
	if w.ActiveMix != rubis.MixBidding {
		t.Errorf("default mix = %q", w.ActiveMix)
	}
	if len(w.Queries()) == 0 || len(w.Updates()) == 0 {
		t.Fatal("bidding mix missing queries or updates")
	}

	w.ActiveMix = rubis.MixBrowsing
	if len(w.Updates()) != 0 {
		t.Error("browsing mix contains writes")
	}

	// Write-scaled mixes multiply write transaction weights only.
	var store *rubis.Transaction
	var view *rubis.Transaction
	for _, txn := range txns {
		if txn.Name == "StoreBid" {
			store = txn
		}
		if txn.Name == "ViewItem" {
			view = txn
		}
	}
	if rubis.TransactionWeight(store, rubis.MixWrite10) != 10*rubis.TransactionWeight(store, rubis.MixBidding) {
		t.Error("write10 does not scale writes by 10")
	}
	if rubis.TransactionWeight(store, rubis.MixWrite100) != 100*rubis.TransactionWeight(store, rubis.MixBidding) {
		t.Error("write100 does not scale writes by 100")
	}
	if rubis.TransactionWeight(view, rubis.MixWrite100) != rubis.TransactionWeight(view, rubis.MixBidding) {
		t.Error("write100 scales read weights")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateMatchesModelCounts(t *testing.T) {
	cfg := tinyConfig()
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	sizes := rubis.SizesFor(cfg)
	checks := map[string]int{
		"User": sizes.Users, "Item": sizes.Items, "Bid": sizes.Bids,
		"Category": sizes.Categories, "Region": sizes.Regions,
		"Comment": sizes.Comments, "BuyNow": sizes.BuyNows, "OldItem": sizes.OldItems,
	}
	for name, want := range checks {
		e := g.MustEntity(name)
		if got := len(entityIDs(t, ds, e)); got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
		if e.Count != want {
			t.Errorf("%s model count = %d, want %d", name, e.Count, want)
		}
	}
	// Every item belongs to one category and one seller.
	item := g.MustEntity("Item")
	for _, edge := range []string{"Category", "Seller"} {
		links := map[backend.Value]int{}
		err := ds.ForEachCombination(model.NewPath(item).Append(item.Edge(edge)), func(c *backend.Combination) error {
			id, _ := c.Value(item.Key())
			links[id]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range entityIDs(t, ds, item) {
			if links[id] != 1 {
				t.Errorf("item %v has %d %s links, want 1", id, links[id], edge)
			}
		}
	}
}

// entityIDs lists the ids of every instance of e in the dataset.
func entityIDs(t *testing.T, ds *backend.Dataset, e *model.Entity) []backend.Value {
	t.Helper()
	var ids []backend.Value
	err := ds.ForEachCombination(model.NewPath(e), func(c *backend.Combination) error {
		id, _ := c.Value(e.Key())
		ids = append(ids, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestParamSourceCoversTransactions(t *testing.T) {
	cfg := tinyConfig()
	g := rubis.Graph(cfg)
	txns, err := rubis.Transactions(g)
	if err != nil {
		t.Fatal(err)
	}
	ps := rubis.NewParamSource(cfg, 3)
	for _, txn := range txns {
		params := ps.Params(txn.Name)
		for _, st := range txn.Statements {
			for _, name := range statementParams(st) {
				if _, ok := params[name]; !ok {
					t.Errorf("%s: parameter ?%s not generated", txn.Name, name)
				}
			}
		}
	}
	// Fresh insert ids do not collide across calls.
	a := ps.Params("StoreBid")["bid"]
	b := ps.Params("StoreBid")["bid"]
	if a == b {
		t.Error("StoreBid ids collide")
	}
}

// statementParams extracts the parameter names a statement uses.
func statementParams(st workload.Statement) []string {
	var out []string
	switch s := st.(type) {
	case *workload.Query:
		for _, p := range s.Where {
			out = append(out, p.Param)
		}
	case *workload.Insert:
		out = append(out, s.KeyParam)
		for _, a := range s.Set {
			out = append(out, a.Param)
		}
		for _, c := range s.Connections {
			out = append(out, c.Param)
		}
	case *workload.Update:
		for _, a := range s.Set {
			out = append(out, a.Param)
		}
		for _, p := range s.Where {
			out = append(out, p.Param)
		}
	case *workload.Delete:
		for _, p := range s.Where {
			out = append(out, p.Param)
		}
	case *workload.Connect:
		out = append(out, s.FromParam, s.ToParam)
	}
	return out
}
