package executor_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"nose/internal/backend"
	"nose/internal/executor"
	"nose/internal/hotel"
	"nose/internal/search"
	"nose/internal/workload"
)

// recovered runs f, turning a panic into a test error.
func recovered(t *testing.T, label string, f func() error) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
			t.Errorf("%s: %v", label, err)
		}
	}()
	return f()
}

// TestBindingsAreCoerced binds plain ints where the attributes hold
// int64 and float64: the executor and the oracle coerce each binding to
// the type of the attribute it is used for, so the rows and simulated
// times match the typed bindings', for queries and for an insert. A
// value the type cannot hold is an error naming the parameter, and a nil
// Params binds nothing, as empty Bindings do.
func TestBindingsAreCoerced(t *testing.T) {
	setup := func() (*backend.Dataset, *search.Recommendation, *executor.Executor, *workload.Insert) {
		ds := buildHotelData(t)
		g := ds.Graph
		w := workload.New(g)
		for _, lq := range [][2]string{{"GuestsByCity", hotel.ExampleQuery}, {"RatesByPOI", hotel.POIQuery}} {
			q := workload.MustParseQuery(g, lq[1])
			q.Label = lq[0]
			w.Add(q, 1)
		}
		ins := workload.MustParse(g,
			`INSERT INTO Reservation SET ResID = ?rid AND CONNECT TO Guest(?gid), Room(?roomid)`).(*workload.Insert)
		w.Add(ins, 0.5)
		rec, _, ex := adviseAndInstall(t, ds, w)
		return ds, rec, ex, ins
	}
	typedDS, typedRec, typedEx, typedIns := setup()
	intDS, intRec, intEx, intIns := setup()
	plan := func(rec *search.Recommendation, label string) *search.QueryRecommendation {
		for _, qr := range rec.Queries {
			if qr.Plan.Query.Label == label {
				return qr
			}
		}
		t.Fatalf("no recommendation for %s", label)
		return nil
	}
	writes := func(rec *search.Recommendation, ins *workload.Insert) (urs []*search.UpdateRecommendation) {
		for _, ur := range rec.Updates {
			if ur.Statement.Statement == ins {
				urs = append(urs, ur)
			}
		}
		return urs
	}
	same := func(label string, typed, plain executor.Bindings) {
		t.Helper()
		tq, iq := plan(typedRec, label), plan(intRec, label)
		want, werr := typedEx.ExecuteQuery(tq.Plan, typed)
		var got *executor.Result
		gerr := recovered(t, label, func() (err error) {
			got, err = intEx.ExecuteQuery(iq.Plan, plain)
			return err
		})
		if werr != nil || gerr != nil {
			t.Fatalf("%s(%v): %v; typed: %v", label, plain, gerr, werr)
		}
		if !reflect.DeepEqual(executor.CanonicalRows(got.Rows), executor.CanonicalRows(want.Rows)) ||
			math.Float64bits(got.SimMillis) != math.Float64bits(want.SimMillis) {
			t.Errorf("%s(%v): %d rows in %v ms, typed bindings %d rows in %v ms",
				label, plain, len(got.Rows), got.SimMillis, len(want.Rows), want.SimMillis)
		}
		var oracle []executor.Tuple
		oerr := recovered(t, label+" oracle", func() (err error) {
			oracle, err = executor.Oracle(intDS, iq.Plan.Query, plain)
			return err
		})
		if oerr != nil || !reflect.DeepEqual(executor.CanonicalRows(oracle), executor.CanonicalRows(want.Rows)) {
			t.Errorf("%s(%v): oracle %d rows (%v), executor %d", label, plain, len(oracle), oerr, len(want.Rows))
		}
	}
	check := func() {
		t.Helper()
		for id := 0; id < 10; id++ {
			same("RatesByPOI", executor.Bindings{"floor": int64(3), "id": int64(id)}, executor.Bindings{"floor": 3, "id": id})
		}
		for city := 0; city < 5; city++ {
			c := fmt.Sprintf("City%d", city)
			same("GuestsByCity", executor.Bindings{"city": c, "rate": float64(120)}, executor.Bindings{"city": c, "rate": 120})
		}
	}
	check()

	want, err := typedEx.ExecuteWrite(writes(typedRec, typedIns), executor.Bindings{"rid": int64(99_999), "gid": int64(3), "roomid": int64(11)})
	if err != nil {
		t.Fatal(err)
	}
	var got *executor.Result
	if err := recovered(t, "insert", func() (err error) {
		got, err = intEx.ExecuteWrite(writes(intRec, intIns), executor.Bindings{"rid": 99_999, "gid": 3, "roomid": 11})
		return err
	}); err != nil {
		t.Fatalf("insert with int bindings: %v", err)
	}
	if math.Float64bits(got.SimMillis) != math.Float64bits(want.SimMillis) {
		t.Errorf("insert with int bindings: %v ms, typed %v ms", got.SimMillis, want.SimMillis)
	}
	for _, ds := range []*backend.Dataset{typedDS, intDS} {
		g := ds.Graph
		must(t, ds.AddEntity(g.MustEntity("Reservation"), map[string]backend.Value{"ResID": 99_999}))
		must(t, ds.Connect(g.MustEntity("Guest").Edge("Reservations"), int64(3), int64(99_999)))
		must(t, ds.Connect(g.MustEntity("Room").Edge("Reservations"), int64(11), int64(99_999)))
	}
	check()

	poi := plan(intRec, "RatesByPOI")
	bad := executor.Bindings{"floor": "x", "id": int64(2)}
	if err := recovered(t, "executor", func() error {
		_, err := intEx.ExecuteQuery(poi.Plan, bad)
		return err
	}); err == nil || !strings.Contains(err.Error(), "?floor") {
		t.Errorf("executor with a string ?floor: %v, want an error naming ?floor", err)
	}
	if err := recovered(t, "oracle", func() error {
		_, err := executor.Oracle(intDS, poi.Plan.Query, bad)
		return err
	}); err == nil || !strings.Contains(err.Error(), "?floor") {
		t.Errorf("oracle with a string ?floor: %v, want an error naming ?floor", err)
	}

	_, nilErr := intEx.ExecuteQuery(poi.Plan, nil)
	_, emptyErr := intEx.ExecuteQuery(poi.Plan, executor.Bindings{})
	if nilErr == nil || fmt.Sprint(nilErr) != fmt.Sprint(emptyErr) {
		t.Errorf("nil Params: %v; empty Bindings: %v", nilErr, emptyErr)
	}
}
