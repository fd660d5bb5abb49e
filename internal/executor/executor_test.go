package executor_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/executor"
	"nose/internal/hotel"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// buildHotelData creates a deterministic mid-sized hotel dataset.
func buildHotelData(t *testing.T) *backend.Dataset {
	t.Helper()
	g := hotel.Graph()
	ds := backend.NewDataset(g)
	rng := rand.New(rand.NewSource(1))

	hotelE := g.MustEntity("Hotel")
	room := g.MustEntity("Room")
	guest := g.MustEntity("Guest")
	res := g.MustEntity("Reservation")
	poi := g.MustEntity("POI")

	const (
		nHotels = 20
		nRooms  = 200
		nGuests = 300
		nRes    = 900
		nPOIs   = 40
	)
	for i := 0; i < nHotels; i++ {
		must(t, ds.AddEntity(hotelE, map[string]backend.Value{
			"HotelID":   i,
			"HotelName": fmt.Sprintf("Hotel%d", i),
			"HotelCity": fmt.Sprintf("City%d", i%5),
		}))
	}
	for i := 0; i < nPOIs; i++ {
		must(t, ds.AddEntity(poi, map[string]backend.Value{
			"POIID":   i,
			"POIName": fmt.Sprintf("POI%d", i),
		}))
		// Each POI near 1-3 hotels.
		for _, h := range rng.Perm(nHotels)[:1+rng.Intn(3)] {
			must(t, ds.Connect(hotelE.Edge("PointsOfInterest"), int64(h), int64(i)))
		}
	}
	for i := 0; i < nRooms; i++ {
		must(t, ds.AddEntity(room, map[string]backend.Value{
			"RoomID":    i,
			"RoomRate":  float64(50 + rng.Intn(20)*10),
			"RoomFloor": rng.Intn(10),
		}))
		must(t, ds.Connect(hotelE.Edge("Rooms"), int64(i%nHotels), int64(i)))
	}
	for i := 0; i < nGuests; i++ {
		must(t, ds.AddEntity(guest, map[string]backend.Value{
			"GuestID":    i,
			"GuestName":  fmt.Sprintf("Guest%d", i),
			"GuestEmail": fmt.Sprintf("g%d@example.com", i),
		}))
	}
	for i := 0; i < nRes; i++ {
		must(t, ds.AddEntity(res, map[string]backend.Value{"ResID": i}))
		must(t, ds.Connect(room.Edge("Reservations"), int64(rng.Intn(nRooms)), int64(i)))
		must(t, ds.Connect(guest.Edge("Reservations"), int64(rng.Intn(nGuests)), int64(i)))
	}
	return ds
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// adviseAndInstall runs the advisor and loads the recommended schema.
func adviseAndInstall(t *testing.T, ds *backend.Dataset, w *workload.Workload) (*search.Recommendation, *backend.Store, *executor.Executor) {
	t.Helper()
	rec, err := search.Advise(w, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := backend.NewStore(cost.DefaultParams())
	for _, x := range rec.Schema.Indexes() {
		must(t, ds.Install(store, x))
	}
	return rec, store, executor.New(store, cost.DefaultParams())
}

func checkQueryAgainstOracle(t *testing.T, ds *backend.Dataset, ex *executor.Executor, rec *search.Recommendation, label string, params executor.Params) {
	t.Helper()
	for _, qr := range rec.Queries {
		q := qr.Statement.Statement.(*workload.Query)
		if q.Label != label {
			continue
		}
		got, err := ex.ExecuteQuery(qr.Plan, params)
		if err != nil {
			t.Fatalf("%s: %v\nplan:\n%s", label, err, qr.Plan)
		}
		want, err := executor.Oracle(ds, q, params)
		if err != nil {
			t.Fatal(err)
		}
		gotC, wantC := executor.CanonicalRows(got.Rows), executor.CanonicalRows(want)
		if !reflect.DeepEqual(gotC, wantC) {
			t.Errorf("%s(%v): got %d rows, want %d\nplan:\n%s\ngot:  %v\nwant: %v",
				label, params, len(gotC), len(wantC), qr.Plan, gotC, wantC)
		}
		if got.SimMillis <= 0 {
			t.Errorf("%s: no simulated time", label)
		}
		return
	}
	t.Fatalf("no recommendation for %s", label)
}

func TestQueriesMatchOracle(t *testing.T) {
	ds := buildHotelData(t)
	g := ds.Graph
	w := workload.New(g)
	q1 := workload.MustParseQuery(g, hotel.ExampleQuery)
	q1.Label = "GuestsByCity"
	q2 := workload.MustParseQuery(g, hotel.PrefixQuery)
	q2.Label = "RoomsByCity"
	q3 := workload.MustParseQuery(g, hotel.POIQuery)
	q3.Label = "RatesByPOI"
	w.Add(q1, 1)
	w.Add(q2, 1)
	w.Add(q3, 1)

	rec, _, ex := adviseAndInstall(t, ds, w)

	for city := 0; city < 5; city++ {
		params := executor.Params{"city": fmt.Sprintf("City%d", city), "rate": float64(120)}
		checkQueryAgainstOracle(t, ds, ex, rec, "GuestsByCity", params)
		checkQueryAgainstOracle(t, ds, ex, rec, "RoomsByCity", params)
	}
	for id := 0; id < 10; id++ {
		params := executor.Params{"floor": int64(3), "id": int64(id)}
		checkQueryAgainstOracle(t, ds, ex, rec, "RatesByPOI", params)
	}
}

// TestAllPlansMatchOracle executes not only the recommended plan but a
// sample of alternative plans from the plan space, all of which must
// return the same answer.
func TestAllPlansMatchOracle(t *testing.T) {
	ds := buildHotelData(t)
	g := ds.Graph
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.PrefixQuery)
	q.Label = "RoomsByCity"
	w.Add(q, 1)

	// Plan with the full pool available; install every candidate.
	rec, err := search.Advise(w, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = rec

	// Re-derive the full plan space over all candidates.
	res, err := enumerateForTest(w)
	if err != nil {
		t.Fatal(err)
	}
	store := backend.NewStore(cost.DefaultParams())
	for _, x := range res.pool {
		must(t, ds.Install(store, x))
	}
	ex := executor.New(store, cost.DefaultParams())

	params := executor.Params{"city": "City2", "rate": float64(100)}
	want, err := executor.Oracle(ds, q, params)
	if err != nil {
		t.Fatal(err)
	}
	wantC := executor.CanonicalRows(want)

	limit := len(res.space.Plans)
	if limit > 12 {
		limit = 12
	}
	for _, plan := range res.space.Plans[:limit] {
		got, err := ex.ExecuteQuery(plan, params)
		if err != nil {
			t.Fatalf("plan failed: %v\n%s", err, plan)
		}
		if !reflect.DeepEqual(executor.CanonicalRows(got.Rows), wantC) {
			t.Errorf("plan disagrees with oracle:\n%s", plan)
		}
	}
}

func TestOrderedQueryReturnsSortedRows(t *testing.T) {
	ds := buildHotelData(t)
	g := ds.Graph
	w := workload.New(g)
	q := workload.MustParseQuery(g,
		`SELECT Room.RoomID, Room.RoomRate FROM Room WHERE Room.Hotel.HotelCity = ?city ORDER BY Room.RoomRate`)
	q.Label = "OrderedRooms"
	w.Add(q, 1)
	rec, _, ex := adviseAndInstall(t, ds, w)

	params := executor.Params{"city": "City1"}
	got, err := ex.ExecuteQuery(rec.Queries[0].Plan, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) == 0 {
		t.Fatal("no rows")
	}
	last := -1.0
	for _, row := range got.Rows {
		v, ok := row.Get("Room.RoomRate")
		if !ok {
			t.Fatal("row has no Room.RoomRate column")
		}
		r := v.(float64)
		if r < last {
			t.Fatalf("rows not sorted: %v after %v", r, last)
		}
		last = r
	}
	// And matches the oracle including order of the sort column.
	want, _ := executor.Oracle(ds, q, params)
	if len(want) != len(got.Rows) {
		t.Errorf("rows = %d, oracle %d", len(got.Rows), len(want))
	}
}

func TestExecuteUpdateMaintainsViews(t *testing.T) {
	ds := buildHotelData(t)
	g := ds.Graph
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	q.Label = "GuestsByCity"
	w.Add(q, 1)
	upd := workload.MustParse(g, `UPDATE Guest SET GuestName = ?newname WHERE Guest.GuestID = ?gid`)
	w.Add(upd, 0.5)

	rec, _, ex := adviseAndInstall(t, ds, w)

	// Execute the update against every maintained family.
	params := executor.Params{"newname": "RENAMED", "gid": int64(7)}
	var ursupd []*search.UpdateRecommendation
	for _, ur := range rec.Updates {
		if ur.Statement.Statement == upd {
			ursupd = append(ursupd, ur)
		}
	}
	if _, err := ex.ExecuteWrite(ursupd, params); err != nil {
		t.Fatalf("ExecuteUpdate: %v", err)
	}
	// Mirror the mutation in the base dataset and compare via oracle.
	must(t, ds.UpdateEntity(g.MustEntity("Guest"), int64(7), map[string]backend.Value{"GuestName": "RENAMED"}))

	for city := 0; city < 5; city++ {
		checkQueryAgainstOracle(t, ds, ex, rec, "GuestsByCity",
			executor.Params{"city": fmt.Sprintf("City%d", city), "rate": float64(60)})
	}
}

func TestExecuteInsertCreatesRecords(t *testing.T) {
	ds := buildHotelData(t)
	g := ds.Graph
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	q.Label = "GuestsByCity"
	w.Add(q, 1)
	ins := workload.MustParse(g,
		`INSERT INTO Reservation SET ResID = ?rid AND CONNECT TO Guest(?gid), Room(?roomid)`)
	w.Add(ins, 0.5)

	rec, _, ex := adviseAndInstall(t, ds, w)

	params := executor.Params{"rid": int64(99_999), "gid": int64(3), "roomid": int64(11)}
	var ursins []*search.UpdateRecommendation
	for _, ur := range rec.Updates {
		if ur.Statement.Statement == ins {
			ursins = append(ursins, ur)
		}
	}
	if _, err := ex.ExecuteWrite(ursins, params); err != nil {
		t.Fatalf("ExecuteUpdate(insert): %v", err)
	}
	resE := g.MustEntity("Reservation")
	must(t, ds.AddEntity(resE, map[string]backend.Value{"ResID": 99_999}))
	must(t, ds.Connect(g.MustEntity("Guest").Edge("Reservations"), int64(3), int64(99_999)))
	must(t, ds.Connect(g.MustEntity("Room").Edge("Reservations"), int64(11), int64(99_999)))

	for city := 0; city < 5; city++ {
		checkQueryAgainstOracle(t, ds, ex, rec, "GuestsByCity",
			executor.Params{"city": fmt.Sprintf("City%d", city), "rate": float64(60)})
	}
}

func TestExecuteDeleteRemovesRecords(t *testing.T) {
	ds := buildHotelData(t)
	g := ds.Graph
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	q.Label = "GuestsByCity"
	w.Add(q, 1)
	del := workload.MustParse(g, `DELETE FROM Guest WHERE Guest.GuestID = ?gid`)
	w.Add(del, 0.5)

	rec, _, ex := adviseAndInstall(t, ds, w)

	params := executor.Params{"gid": int64(12)}
	var ursdel []*search.UpdateRecommendation
	for _, ur := range rec.Updates {
		if ur.Statement.Statement == del {
			ursdel = append(ursdel, ur)
		}
	}
	if _, err := ex.ExecuteWrite(ursdel, params); err != nil {
		t.Fatalf("ExecuteUpdate(delete): %v", err)
	}
	must(t, ds.RemoveEntity(g.MustEntity("Guest"), int64(12)))

	for city := 0; city < 5; city++ {
		checkQueryAgainstOracle(t, ds, ex, rec, "GuestsByCity",
			executor.Params{"city": fmt.Sprintf("City%d", city), "rate": float64(60)})
	}
}

func TestExecuteQueryMissingParam(t *testing.T) {
	ds := buildHotelData(t)
	g := ds.Graph
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.PrefixQuery)
	w.Add(q, 1)
	rec, _, ex := adviseAndInstall(t, ds, w)
	if _, err := ex.ExecuteQuery(rec.Queries[0].Plan, executor.Params{"city": "City0"}); err == nil {
		t.Error("expected error for missing ?rate")
	}
}

// testEnumeration exposes the full candidate pool and a query's full
// plan space for plan-equivalence testing.
type testEnumeration struct {
	pool  []*schema.Index
	space *planner.PlanSpace
}

func enumerateForTest(w *workload.Workload) (*testEnumeration, error) {
	res, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		return nil, err
	}
	pl := planner.New(res.Pool, cost.Default(), planner.DefaultConfig())
	q := w.Queries()[0].Statement.(*workload.Query)
	space, err := pl.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return &testEnumeration{pool: res.Pool.Indexes(), space: space}, nil
}
