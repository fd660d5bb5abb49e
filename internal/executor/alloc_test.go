package executor_test

import (
	"fmt"
	"runtime"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/model"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/schema"
	"nose/internal/workload"
)

// synth makes the i-th value of an attribute's type.
func synth(a *model.Attribute, i int) backend.Value {
	switch a.Type {
	case model.FloatType:
		return float64(i)
	case model.StringType:
		return fmt.Sprintf("%s %d", a.Name, i)
	case model.BooleanType:
		return i%2 == 0
	default:
		return int64(i)
	}
}

// TestExecuteQueryAllocationBudget holds the compiled executor to what
// it may allocate: per call the result (its value arena, its []Tuple,
// the Result), one closure set per lookup step and the dedupe keys' map
// entries' strings; per get the partition key and the store's GetResult
// and []Record — and nothing per row. On the expert RUBiS schema, a
// single-lookup plan (a user's comments) and a two-lookup plan (an
// item's bids, then each bidder) run over 10 and then 100 matching
// records: allocations beyond three per get are the same small constant
// at both sizes, and bytes stay within twice the irreducible 16 B per
// returned cell plus 48 B per record read.
func TestExecuteQueryAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := rubis.Config{Users: 50, Seed: 7}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rubisRecommendations[2].recommend(w) // the expert schema
	if err != nil {
		t.Fatal(err)
	}
	lat := cost.DefaultParams()
	store := backend.NewStore(lat)
	reg := obs.NewRegistry()
	store.SetObs(reg)
	for _, x := range rec.Schema.Indexes() {
		must(t, ds.Install(store, x))
	}
	ex := executor.New(store, lat)
	plan := func(label string, lookups int) *planner.Plan {
		for _, qr := range rec.Queries {
			if workload.Label(qr.Plan.Query) == label {
				if got := len(qr.Plan.Indexes()); got != lookups || len(qr.Plan.Steps) != lookups {
					t.Fatalf("%s reads %d families in %d steps, want %d lookups only:\n%s", label, got, len(qr.Plan.Steps), lookups, qr.Plan)
				}
				return qr.Plan
			}
		}
		t.Fatalf("no plan for %s", label)
		return nil
	}
	family := func(p *planner.Plan, i int) *schema.Index { return p.Steps[i].(*planner.LookupStep).Index }
	put := func(x *schema.Index, partition, clustering []backend.Value, i int) {
		values := make([]backend.Value, len(x.Values))
		for j, a := range x.Values {
			values[j] = synth(a, i)
		}
		_, err := store.Put(x.Name, partition, clustering, values)
		must(t, err)
	}

	comments := plan("ViewUserInfo/1", 1)
	history := plan("ViewBidHistory/1", 2)
	const perGet = 3 // partition key, GetResult, []Record
	for _, tc := range []struct {
		name string
		plan *planner.Plan
		// load puts n matching records under a fresh key and binds it.
		load func(n int) executor.Params
	}{
		{"single lookup", comments, func(n int) executor.Params {
			user := int64(1_000_000 + n)
			for i := 0; i < n; i++ {
				put(family(comments, 0), []backend.Value{user}, []backend.Value{int64(i)}, i)
			}
			return executor.Params{"user": user}
		}},
		{"two lookups", history, func(n int) executor.Params {
			item := int64(1_000_000 + n)
			for i := 0; i < n; i++ {
				bidder := int64(2_000_000 + 1000*n + i)
				put(family(history, 0), []backend.Value{item}, []backend.Value{int64(i), bidder}, i)
				put(family(history, 1), []backend.Value{bidder}, nil, i)
			}
			return executor.Params{"item": item}
		}},
	} {
		var fixed [2]float64
		for k, n := range []int{10, 100} {
			params := tc.load(n)
			gets0, read0 := reg.Counter("store.gets").Value(), reg.Counter("store.records_read").Value()
			res, err := ex.ExecuteQuery(tc.plan, params)
			if err != nil {
				t.Fatal(err)
			}
			gets := float64(reg.Counter("store.gets").Value() - gets0)
			read := float64(reg.Counter("store.records_read").Value() - read0)
			cells := 0
			for _, qr := range rec.Queries {
				if qr.Plan == tc.plan {
					cells = len(res.Rows) * len(qr.Plan.Query.Select)
				}
			}
			if len(res.Rows) != n || cells == 0 {
				t.Fatalf("%s over %d records: %d rows", tc.name, n, len(res.Rows))
			}

			allocs := testing.AllocsPerRun(100, func() {
				if _, err := ex.ExecuteQuery(tc.plan, params); err != nil {
					t.Fatal(err)
				}
			})
			fixed[k] = allocs - perGet*gets - float64(n) // one dedupe key string per distinct row
			if fixed[k] > 12 {
				t.Errorf("%s over %d records: %.0f allocations per call, %.0f beyond %d per get and one key per row",
					tc.name, n, allocs, fixed[k], perGet)
			}

			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				ex.ExecuteQuery(tc.plan, params)
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			if floor := 16*float64(cells) + 48*read; bytes > 2*floor {
				t.Errorf("%s over %d records: %.0f B per call, over twice the %.0f B of %d returned cells and %.0f records read",
					tc.name, n, bytes, floor, cells, read)
			}
			t.Logf("%s over %d records: %.0f allocs (%.0f fixed), %.0f B per call, %.0f gets", tc.name, n, allocs, fixed[k], bytes, gets)
		}
		if fixed[0] != fixed[1] {
			t.Errorf("%s: %.0f fixed allocations per call over 10 records, %.0f over 100: something allocates per row",
				tc.name, fixed[0], fixed[1])
		}
	}
}
