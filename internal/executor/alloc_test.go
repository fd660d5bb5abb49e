package executor_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

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
// entries' strings; per get the store's GetResult alone — the partition
// key and the records reuse the scratch's buffers — and nothing per row.
// On the expert RUBiS schema, a single-lookup plan (a user's comments)
// and a two-lookup plan (an item's bids, then each bidder) run over 10
// and then 100 matching records: ExecuteQuery's allocations beyond one
// per get and one dedupe key per row are the same small constant at
// both sizes, and its bytes stay within twice what the API makes
// irreducible — 16 B per returned cell, a 32 B Tuple per returned row and
// a 32 B GetResult per get — with nothing per record read. RunQuery,
// which builds no rows, allocates the same constant beyond one per get
// at both sizes, and its bytes beyond the GetResults' do not grow with
// the records read.
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
	const perGet = 1 // the store's GetResult
	getResult := float64(unsafe.Sizeof(backend.GetResult{}))
	// bytesPerCall is what one call of f allocates, measured as the
	// root's allocsPerRun measures, at GOMAXPROCS 1 after a warm-up
	// call, and the least of three 200-call windows: TotalAlloc counts
	// the whole process, so a window in which something else allocates
	// reads high, and the least window is the one it missed.
	bytesPerCall := func(f func()) float64 {
		const runs, windows = 200, 3
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		f()
		least := math.Inf(1)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				f()
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
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
			return executor.Bindings{"user": user}
		}},
		{"two lookups", history, func(n int) executor.Params {
			item := int64(1_000_000 + n)
			for i := 0; i < n; i++ {
				bidder := int64(2_000_000 + 1000*n + i)
				put(family(history, 0), []backend.Value{item}, []backend.Value{int64(i), bidder}, i)
				put(family(history, 1), []backend.Value{bidder}, nil, i)
			}
			return executor.Bindings{"item": item}
		}},
	} {
		var fixed, bare, bareBytes [2]float64
		for k, n := range []int{10, 100} {
			params := tc.load(n)
			gets0 := reg.Counter("store.gets").Value()
			res, err := ex.ExecuteQuery(tc.plan, params)
			if err != nil {
				t.Fatal(err)
			}
			gets := float64(reg.Counter("store.gets").Value() - gets0)
			cells := 0
			for _, qr := range rec.Queries {
				if qr.Plan == tc.plan {
					cells = len(res.Rows) * len(qr.Plan.Query.Select)
				}
			}
			if len(res.Rows) != n || cells == 0 {
				t.Fatalf("%s over %d records: %d rows", tc.name, n, len(res.Rows))
			}

			execute := func() {
				if _, err := ex.ExecuteQuery(tc.plan, params); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, execute)
			fixed[k] = allocs - perGet*gets - float64(n) // one dedupe key string per distinct row
			if fixed[k] > 12 {
				t.Errorf("%s over %d records: %.0f allocations per call, %.0f beyond %d per get and one key per row",
					tc.name, n, allocs, fixed[k], perGet)
			}
			bytes := bytesPerCall(execute)
			tuple := float64(unsafe.Sizeof(executor.Tuple{}))
			if floor := 16*float64(cells) + tuple*float64(n) + getResult*gets; bytes > 2*floor {
				t.Errorf("%s over %d records: %.0f B per call, over twice the %.0f B of %d returned cells, %d rows and %.0f gets",
					tc.name, n, bytes, floor, cells, n, gets)
			}

			run := func() {
				res, err := ex.RunQuery(tc.plan, params)
				if err != nil || res.Rows != nil {
					t.Fatalf("RunQuery: %d rows, %v", len(res.Rows), err)
				}
			}
			runAllocs := testing.AllocsPerRun(100, run)
			bare[k] = runAllocs - perGet*gets
			bareBytes[k] = bytesPerCall(run) - getResult*gets
			t.Logf("%s over %d records: ExecuteQuery %.0f allocs (%.0f fixed), %.0f B; RunQuery %.0f allocs (%.0f fixed), %.0f B (%.0f beyond the GetResults); %.0f gets",
				tc.name, n, allocs, fixed[k], bytes, runAllocs, bare[k], bareBytes[k]+getResult*gets, bareBytes[k], gets)
		}
		if fixed[0] != fixed[1] {
			t.Errorf("%s: %.0f fixed allocations per call over 10 records, %.0f over 100: something allocates per row",
				tc.name, fixed[0], fixed[1])
		}
		if bare[0] != bare[1] {
			t.Errorf("%s: RunQuery allocates %.0f times beyond one per get over 10 records, %.0f over 100: something allocates per row",
				tc.name, bare[0], bare[1])
		}
		// 16 B of slack: the runtime allocates a little of its own while
		// the calls are counted.
		if bareBytes[1] > bareBytes[0]+16 {
			t.Errorf("%s: RunQuery allocates %.0f B beyond the GetResults over 10 records, %.0f B over 100: bytes grow with the records read",
				tc.name, bareBytes[0], bareBytes[1])
		}
	}
}

// TestCoordinatedOperationAllocatesOneResult: on a healthy five-node
// cluster at RF 3, a coordinated put, delete and get each allocate
// exactly their one result at every consistency level — no result per
// replica, and for a get whose buffer holds the records no slice. The
// put replaces a record, so the stores keep nothing new, and the
// delete's warm-up call removes the record the measured calls then miss.
func TestCoordinatedOperationAllocatesOneResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, level := range []executor.Consistency{executor.One, executor.Quorum, executor.All} {
		_, coord, _, _ := newCluster(t, 5, 3, level, level, false)
		p, c, v := vals(int64(1)), vals(int64(0)), vals("v")
		if _, err := coord.Put("cf1", p, c, v); err != nil {
			t.Fatal(err)
		}
		buf := make([]backend.Record, 0, 4)
		var err error
		ops := []struct {
			name string
			op   func()
		}{
			{"Put", func() { _, err = coord.Put("cf1", p, c, v) }},
			{"Get", func() { _, err = coord.Get("cf1", backend.GetRequest{Partition: p, Into: buf}) }},
			{"Delete", func() { _, _, err = coord.Delete("cf1", p, c) }},
		}
		for _, o := range ops {
			allocs := testing.AllocsPerRun(100, o.op)
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 1 {
				t.Errorf("%v %s allocates %v times, want its one result", level, o.name, allocs)
			}
		}
	}
}
