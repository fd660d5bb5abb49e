package rubis_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"nose/internal/backend"
	"nose/internal/executor"
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
		path := model.NewPath(item).Append(item.Edge(edge))
		key := backend.ColumnOf(path, item.Key())
		err := ds.ForEachCombination(path, func(c *backend.Combination) error {
			id, _ := c.Value(key)
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
	path := model.NewPath(e)
	key := backend.ColumnOf(path, e.Key())
	err := ds.ForEachCombination(path, func(c *backend.Combination) error {
		id, _ := c.Value(key)
		ids = append(ids, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestParamSourceCoversTransactions holds ParamSource to referenceSource,
// the map-literal builder it replaced: at two seeds, 1,000 draws per
// transaction name (and "") must bind every parameter any statement
// uses, plus the fresh ids, with the same presence, Go type and value.
// It runs at the tiny config and at 10,000 users, where ids, dates,
// prices and negative ratings fall outside the 0–255 the runtime boxes
// without allocating, so every interned table is exercised.
func TestParamSourceCoversTransactions(t *testing.T) {
	for _, cfg := range []rubis.Config{tinyConfig(), benchConfig()} {
		txns, names := transactionParams(t, cfg)
		for _, seed := range []int64{3, 17} {
			ps, ref := rubis.NewParamSource(cfg, seed), newReferenceSource(cfg, seed)
			for _, txn := range append(txns, &rubis.Transaction{}) {
				for i := 0; i < 1000; i++ {
					got, want := ps.Params(txn.Name), ref.params(txn.Name)
					for _, st := range txn.Statements {
						for _, name := range statementParams(st) {
							if _, ok := param(got, name); !ok {
								t.Fatalf("%s: parameter ?%s not generated", txn.Name, name)
							}
						}
					}
					if err := sameBindings(got, want, names); err != nil {
						t.Fatalf("users %d seed %d %q draw %d: %v", cfg.Users, seed, txn.Name, i, err)
					}
				}
			}
		}
	}
	// Fresh insert ids do not collide across calls.
	ps := rubis.NewParamSource(tinyConfig(), 3)
	a, _ := param(ps.Params("StoreBid"), "bid")
	b, _ := param(ps.Params("StoreBid"), "bid")
	if a == b {
		t.Error("StoreBid ids collide")
	}
}

// TestParamReadsAllocateNothing holds reading a binding to zero
// allocations: after 100 draws per transaction name at 10,000 users,
// reading every parameter name of every binding boxes nothing, since
// each value was interned when it was drawn.
func TestParamReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := benchConfig()
	txns, names := transactionParams(t, cfg)
	ps := rubis.NewParamSource(cfg, 3)
	for _, txn := range txns {
		drawn := make([]executor.Params, 100)
		for i := range drawn {
			drawn[i] = ps.Params(txn.Name)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, p := range drawn {
				for _, name := range names {
					valueSink, _ = p.Param(name)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: reading %d bindings allocates %v times", txn.Name, len(drawn), allocs)
		}
	}
}

// valueSink keeps TestParamReadsAllocateNothing's reads live.
var valueSink backend.Value

// TestParamBindingsReadAcrossGoroutines hands bindings from the
// goroutine that draws them to four readers, as a load generator hands
// them to its clients: each reader must see every name bound as the
// map-literal reference binds it, while the drawing goroutine goes on
// filling intern slots. Run it under -race.
func TestParamBindingsReadAcrossGoroutines(t *testing.T) {
	cfg := benchConfig()
	txns, names := transactionParams(t, cfg)
	type pair struct {
		txn  string
		got  executor.Params
		want map[string]backend.Value
	}
	pairs := make(chan pair)
	go func() {
		defer close(pairs)
		ps, ref := rubis.NewParamSource(cfg, 5), newReferenceSource(cfg, 5)
		for i := 0; i < 5000; i++ {
			txn := txns[i%len(txns)].Name
			pairs <- pair{txn, ps.Params(txn), ref.params(txn)}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range pairs {
				if err := sameBindings(p.got, p.want, names); err != nil {
					t.Errorf("%s: %v", p.txn, err)
				}
			}
		}()
	}
	wg.Wait()
}

// benchConfig is the scale the repository benchmark draws parameters at.
func benchConfig() rubis.Config { return rubis.Config{Users: 10000, Seed: 7} }

// transactionParams returns cfg's RUBiS transactions and, sorted, every
// parameter name their statements use plus the fresh ids' names.
func transactionParams(t *testing.T, cfg rubis.Config) ([]*rubis.Transaction, []string) {
	t.Helper()
	txns, err := rubis.Transactions(rubis.Graph(cfg))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"bid", "bnid", "cid"}
	for _, txn := range txns {
		for _, st := range txn.Statements {
			for _, name := range statementParams(st) {
				if !slices.Contains(names, name) {
					names = append(names, name)
				}
			}
		}
	}
	sort.Strings(names)
	return txns, names
}

// sameBindings compares got with the reference bindings want on every
// name: presence, Go type and value.
func sameBindings(got executor.Params, want map[string]backend.Value, names []string) error {
	for _, name := range names {
		gv, gok := param(got, name)
		wv, wok := want[name]
		if gok != wok || gv != wv {
			return fmt.Errorf("?%s = %T %v (bound %v), want %T %v (bound %v)", name, gv, gv, gok, wv, wv, wok)
		}
	}
	return nil
}

// param reads one binding of drawn parameters.
func param(p executor.Params, name string) (backend.Value, bool) {
	v, ok := p.Param(name)
	return v, ok
}

// referenceSource is ParamSource as a map literal: the same rng draws in
// the literal's left-to-right order, the same fresh-id counters, the
// same Go types.
type referenceSource struct {
	sizes                                                rubis.Sizes
	rng                                                  *rand.Rand
	nextBid, nextBuyNow, nextComment, nextItem, nextUser int64
}

func newReferenceSource(cfg rubis.Config, seed int64) *referenceSource {
	s := rubis.SizesFor(cfg)
	return &referenceSource{
		sizes: s, rng: rand.New(rand.NewSource(seed)),
		nextBid: int64(s.Bids), nextBuyNow: int64(s.BuyNows), nextComment: int64(s.Comments),
		nextItem: int64(s.Items), nextUser: int64(s.Users),
	}
}

func (ps *referenceSource) params(txn string) map[string]backend.Value {
	const dayZero = 1_400_000_000
	r := ps.rng
	date := int64(dayZero + int64(r.Intn(3650))*86_400)
	p := map[string]backend.Value{
		"dummy":     int64(1),
		"item":      int64(r.Intn(ps.sizes.Items)),
		"user":      int64(r.Intn(ps.sizes.Users)),
		"touser":    int64(r.Intn(ps.sizes.Users)),
		"category":  int64(r.Intn(ps.sizes.Categories)),
		"region":    int64(r.Intn(ps.sizes.Regions)),
		"now":       date,
		"end":       date + 30*86_400,
		"qty":       int64(1 + r.Intn(5)),
		"newqty":    int64(r.Intn(10)),
		"amount":    float64(1 + r.Intn(5000)),
		"rating":    int64(r.Intn(11) - 5),
		"newrating": int64(r.Intn(40) - 10),
		"nb":        int64(r.Intn(100)),
		"text":      "generated comment",
		"price":     float64(1 + r.Intn(5000)),
		"rprice":    float64(1 + r.Intn(5000)),
		"bnprice":   float64(1 + r.Intn(5000)),
		"maxbid":    float64(0),
		"name":      "new item",
		"desc":      "new item description",
		"nick":      "new user",
		"email":     "new@rubis.example",
		"balance":   float64(0),
	}
	next := func(n *int64) int64 { *n++; return *n }
	switch txn {
	case "StoreBid":
		p["bid"] = next(&ps.nextBid)
	case "StoreBuyNow":
		p["bnid"] = next(&ps.nextBuyNow)
	case "StoreComment":
		p["cid"] = next(&ps.nextComment)
	case "RegisterItem":
		p["item"] = next(&ps.nextItem)
	case "RegisterUser":
		p["user"] = next(&ps.nextUser)
	}
	return p
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
