package harness_test

import (
	"testing"

	"nose/internal/baselines"
	"nose/internal/cost"
	"nose/internal/harness"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/workload"
)

func buildSystem(t *testing.T) (*harness.System, []*rubis.Transaction, rubis.Config) {
	t.Helper()
	cfg := rubis.Config{Users: 200, Seed: 3}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := baselines.ExpertRUBiS(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := search.AdvisePinned(w, pool, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := harness.NewSystem("expert", ds, rec, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return sys, txns, cfg
}

func TestSystemExecutesAllTransactions(t *testing.T) {
	sys, txns, cfg := buildSystem(t)
	ps := rubis.NewParamSource(cfg, 1)
	total := 0.0
	for _, txn := range txns {
		ms, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name))
		if err != nil {
			t.Fatalf("%s: %v", txn.Name, err)
		}
		if ms < 0 {
			t.Errorf("%s: negative simulated time", txn.Name)
		}
		total += ms
	}
	if total <= 0 {
		t.Error("no simulated time accumulated")
	}
}

func TestSystemStatementKinds(t *testing.T) {
	sys, txns, cfg := buildSystem(t)
	ps := rubis.NewParamSource(cfg, 2)

	// A read statement returns a positive time.
	var view *rubis.Transaction
	var store *rubis.Transaction
	for _, txn := range txns {
		if txn.Name == "ViewItem" {
			view = txn
		}
		if txn.Name == "StoreBid" {
			store = txn
		}
	}
	ms, err := sys.ExecStatement(view.Statements[0], ps.Params("ViewItem"))
	if err != nil || ms <= 0 {
		t.Errorf("read: ms=%v err=%v", ms, err)
	}
	// A write statement executes its maintenance.
	ms, err = sys.ExecStatement(store.Statements[0], ps.Params("StoreBid"))
	if err != nil || ms <= 0 {
		t.Errorf("write: ms=%v err=%v", ms, err)
	}
	// An unknown statement errors.
	g := sys.Rec().Queries[0].Statement.Statement.(*workload.Query).Graph
	foreign := workload.MustParseQuery(g, `SELECT Item.ItemName FROM Item WHERE Item.ItemID = ?x`)
	if _, err := sys.ExecStatement(foreign, nil); err == nil {
		t.Error("expected error for statement without a plan")
	}
}
