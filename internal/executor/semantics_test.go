package executor_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/hotel"
	"nose/internal/model"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/workload"
)

// handPlans is a store of two hand-built column families over the
// hotel graph and the pieces to write plans against them by hand, for
// the corner semantics no advised workload reaches: nil cells, cells of
// mixed numeric kinds, client-side sorts and limits.
type handPlans struct {
	g       *model.Graph
	store   *backend.Store
	byCity  *schema.Index // [Hotel.HotelCity][Hotel.HotelID][Hotel.HotelName]
	rooms   *schema.Index // [Hotel.HotelID, Hotel.HotelCity, Hotel.HotelName][Room.RoomID][Room.RoomRate, Room.RoomFloor]
	lat     cost.Params
	ex      *executor.Executor
	ref     *refExecutor
	rate    *model.Attribute
	roomID  *model.Attribute
	hotelID *model.Attribute
}

func newHandPlans(t *testing.T) *handPlans {
	t.Helper()
	g := hotel.Graph()
	h, r := g.MustEntity("Hotel"), g.MustEntity("Room")
	attr := func(e *model.Entity, name string) *model.Attribute {
		a := e.Attribute(name)
		if a == nil {
			t.Fatalf("no attribute %s.%s", e.Name, name)
		}
		return a
	}
	hp := &handPlans{g: g, lat: cost.DefaultParams(), rate: attr(r, "RoomRate"), roomID: r.Key(), hotelID: h.Key()}
	hp.byCity = &schema.Index{Name: "by_city", Path: model.Path{Start: h},
		Partition: []*model.Attribute{attr(h, "HotelCity")}, Clustering: []*model.Attribute{h.Key()},
		Values: []*model.Attribute{attr(h, "HotelName")}}
	hp.rooms = &schema.Index{Name: "rooms", Path: model.Path{Start: h},
		Partition:  []*model.Attribute{h.Key(), attr(h, "HotelCity"), attr(h, "HotelName")},
		Clustering: []*model.Attribute{r.Key()},
		Values:     []*model.Attribute{hp.rate, attr(r, "RoomFloor")}}
	hp.store = backend.NewStore(hp.lat)
	must(t, hp.store.Create(backend.DefFromIndex(hp.byCity)))
	must(t, hp.store.Create(backend.DefFromIndex(hp.rooms)))
	hp.ex = executor.New(hp.store, hp.lat)
	hp.ref = &refExecutor{store: hp.store, lat: hp.lat}
	return hp
}

func (hp *handPlans) put(t *testing.T, x *schema.Index, partition, clustering, values []backend.Value) {
	t.Helper()
	_, err := hp.store.Put(x.Name, partition, clustering, values)
	must(t, err)
}

func ref(a *model.Attribute) workload.AttrRef { return workload.AttrRef{Attr: a} }

func eq(a *model.Attribute, param string) workload.Predicate {
	return workload.Predicate{Ref: ref(a), Op: workload.Eq, Param: param}
}

// run executes a plan on the compiled executor and on the reference
// interpreter and requires the same rows in the same order and the same
// simulated time bit for bit; it returns one column of the rows.
func (hp *handPlans) run(t *testing.T, plan *planner.Plan, params executor.Params, column *model.Attribute) []backend.Value {
	t.Helper()
	got, err := hp.ex.ExecuteQuery(plan, params)
	if err != nil {
		t.Fatal(err)
	}
	want, sim, err := hp.ref.query(plan, params)
	if err != nil {
		t.Fatal(err)
	}
	if msg := sameRows(got.Rows, want); msg != "" {
		t.Errorf("rows differ from the reference interpreter's: %s", msg)
	}
	if math.Float64bits(got.SimMillis) != math.Float64bits(sim) {
		t.Errorf("SimMillis %v, reference %v", got.SimMillis, sim)
	}
	out := make([]backend.Value, len(got.Rows))
	for i, row := range got.Rows {
		v, ok := row.Get(column.QualifiedName())
		if !ok {
			t.Fatalf("row %d has no column %s", i, column.QualifiedName())
		}
		out[i] = v
	}
	return out
}

// roomsOf loads hotel 1's rooms with the given rates, room ids 0, 1, ….
func (hp *handPlans) roomsOf(t *testing.T, rates ...backend.Value) {
	t.Helper()
	for i, rate := range rates {
		hp.put(t, hp.rooms, []backend.Value{int64(1), "Paris", "Ritz"}, []backend.Value{int64(i)}, []backend.Value{rate, int64(i % 3)})
	}
}

func (hp *handPlans) roomsLookup() *planner.LookupStep {
	return &planner.LookupStep{Index: hp.rooms, EqPredicates: []workload.Predicate{
		eq(hp.rooms.Partition[0], "id"), eq(hp.rooms.Partition[1], "city"), eq(hp.rooms.Partition[2], "name"),
	}}
}

var ritz = executor.Params{"id": int64(1), "city": "Paris", "name": "Ritz"}

// TestDedupeKeepsFirstByKeyEncoding: duplicates are rows whose projected
// cells encode alike — int64(1) is not float64(1), floats compare by
// bits, nil counts as "" — and the first occurrence stays, in order.
func TestDedupeKeepsFirstByKeyEncoding(t *testing.T) {
	hp := newHandPlans(t)
	hp.roomsOf(t, float64(1), int64(1), nil, "", float64(1), math.Copysign(0, -1), float64(0), int64(1), "x")
	plan := &planner.Plan{
		Query: &workload.Query{Graph: hp.g, Select: []workload.AttrRef{ref(hp.rate)}},
		Steps: []planner.Step{hp.roomsLookup()},
	}
	got := hp.run(t, plan, ritz, hp.rate)
	want := []backend.Value{float64(1), int64(1), nil, math.Copysign(0, -1), float64(0), "x"}
	if len(got) != len(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) ||
			backend.EncodeKey([]backend.Value{refNormalize(got[i])}) != backend.EncodeKey([]backend.Value{refNormalize(want[i])}) {
			t.Errorf("row %d is %#v, want %#v", i, got[i], want[i])
		}
	}
}

// TestSortSkipsNilThenLimitTruncates: a client-side sort is stable and
// skips a sort key when either side is nil; LIMIT applies after it.
func TestSortSkipsNilThenLimitTruncates(t *testing.T) {
	hp := newHandPlans(t)
	// 45 rooms, enough for the stable sort's merge phase; every seventh
	// rate is nil.
	rates := make([]backend.Value, 45)
	for i := range rates {
		if rates[i] = backend.Value(float64((i * 37) % 11)); i%7 == 3 {
			rates[i] = nil
		}
	}
	hp.roomsOf(t, rates...)
	for _, limit := range []int{0, 5, 45, 100} {
		steps := []planner.Step{hp.roomsLookup(), &planner.SortStep{By: []workload.AttrRef{ref(hp.rate)}}}
		if limit > 0 {
			steps = append(steps, &planner.LimitStep{N: limit})
		}
		plan := &planner.Plan{
			Query: &workload.Query{Graph: hp.g, Select: []workload.AttrRef{ref(hp.roomID)}, Order: []workload.AttrRef{ref(hp.rate)}},
			Steps: steps,
		}
		got := hp.run(t, plan, ritz, hp.roomID)
		want := len(rates)
		if limit > 0 {
			want = min(limit, want)
		}
		if len(got) != want {
			t.Errorf("limit %d: %d rows, want %d", limit, len(got), want)
		}
	}
	// Without nils the order is the sorted one, ties in clustering order.
	hp = newHandPlans(t)
	hp.roomsOf(t, float64(3), float64(1), float64(2), float64(1))
	plan := &planner.Plan{
		Query: &workload.Query{Graph: hp.g, Select: []workload.AttrRef{ref(hp.roomID)}, Order: []workload.AttrRef{ref(hp.rate)}},
		Steps: []planner.Step{hp.roomsLookup(), &planner.SortStep{By: []workload.AttrRef{ref(hp.rate)}}, &planner.LimitStep{N: 3}},
	}
	if got, want := hp.run(t, plan, ritz, hp.roomID), []backend.Value{int64(1), int64(3), int64(2)}; !reflect.DeepEqual(got, want) {
		t.Errorf("sorted and limited room ids %v, want %v", got, want)
	}
}

// TestPartitionBindingPrecedence: a driving row's partition column binds
// the join key first, then an equality parameter, then the row's own
// value — and falls back to the row when the parameter is unbound.
func TestPartitionBindingPrecedence(t *testing.T) {
	hp := newHandPlans(t)
	hp.put(t, hp.byCity, []backend.Value{"Paris"}, []backend.Value{int64(1)}, []backend.Value{"Ritz"})
	hp.put(t, hp.rooms, []backend.Value{int64(1), "Paris", "Ritz"}, []backend.Value{int64(10)}, []backend.Value{float64(100), int64(1)})
	hp.put(t, hp.rooms, []backend.Value{int64(1), "Lyon", "Ritz"}, []backend.Value{int64(20)}, []backend.Value{float64(200), int64(2)})
	hp.put(t, hp.rooms, []backend.Value{int64(2), "Paris", "Ritz"}, []backend.Value{int64(30)}, []backend.Value{float64(300), int64(3)})
	plan := &planner.Plan{
		Query: &workload.Query{Graph: hp.g, Select: []workload.AttrRef{ref(hp.roomID)}},
		Steps: []planner.Step{
			&planner.LookupStep{Index: hp.byCity, EqPredicates: []workload.Predicate{eq(hp.byCity.Partition[0], "city")}},
			// HotelID: join key, although ?id names hotel 2. HotelCity:
			// ?room_city when bound, else the row's. HotelName: the row's.
			&planner.LookupStep{Index: hp.rooms, JoinKey: hp.hotelID, EqPredicates: []workload.Predicate{
				eq(hp.hotelID, "id"), eq(hp.rooms.Partition[1], "room_city"),
			}},
		},
	}
	if got, want := hp.run(t, plan, executor.Params{"city": "Paris", "id": int64(2), "room_city": "Lyon"}, hp.roomID), []backend.Value{int64(20)}; !reflect.DeepEqual(got, want) {
		t.Errorf("parameter over row: rooms %v, want %v", got, want)
	}
	if got, want := hp.run(t, plan, executor.Params{"city": "Paris", "id": int64(2)}, hp.roomID), []backend.Value{int64(10)}; !reflect.DeepEqual(got, want) {
		t.Errorf("row when the parameter is unbound: rooms %v, want %v", got, want)
	}
}

// TestMissingParameterReportedWhereNeeded: a missing parameter fails the
// step that needs it, not the statement up front, and the result carries
// the simulated time consumed until then.
func TestMissingParameterReportedWhereNeeded(t *testing.T) {
	hp := newHandPlans(t)
	hp.roomsOf(t, float64(1), float64(2))
	filter := &planner.FilterStep{Predicates: []workload.Predicate{{Ref: ref(hp.rate), Op: workload.Gt, Param: "rate"}}}
	rng := hp.roomsLookup()
	rng.RangePredicate = &workload.Predicate{Ref: ref(hp.roomID), Op: workload.Ge, Param: "from"}
	query := &workload.Query{Label: "hand", Graph: hp.g, Select: []workload.AttrRef{ref(hp.roomID)}}
	for _, tc := range []struct {
		name    string
		steps   []planner.Step
		params  executor.Params
		wantErr string
		wantSim bool
	}{
		{"filter after a lookup", []planner.Step{hp.roomsLookup(), filter}, ritz, "missing parameter ?rate", true},
		{"partition of the first lookup", []planner.Step{hp.roomsLookup(), filter}, executor.Params{"id": int64(1), "city": "Paris"}, "no binding for partition column Hotel.HotelName", false},
		{"range of the first lookup", []planner.Step{rng}, ritz, "missing parameter ?from", false},
	} {
		plan := &planner.Plan{Query: query, Steps: tc.steps}
		res, err := hp.ex.ExecuteQuery(plan, tc.params)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			continue
		}
		_, sim, refErr := hp.ref.query(plan, tc.params)
		if refErr == nil || !strings.Contains(err.Error(), refErr.Error()) {
			t.Errorf("%s: error %v, the reference interpreter's is %v", tc.name, err, refErr)
		}
		if res == nil || math.Float64bits(res.SimMillis) != math.Float64bits(sim) || (res.SimMillis > 0) != tc.wantSim {
			t.Errorf("%s: result %+v, want the reference's %v simulated ms", tc.name, res, sim)
		}
	}
	// With no driving row there is nothing to filter and nothing to miss.
	empty := &planner.Plan{Query: query, Steps: []planner.Step{hp.roomsLookup(), filter}}
	if res, err := hp.ex.ExecuteQuery(empty, executor.Params{"id": int64(9), "city": "Paris", "name": "Ritz"}); err != nil || len(res.Rows) != 0 {
		t.Errorf("empty partition: rows %v, error %v", res, err)
	}
}
