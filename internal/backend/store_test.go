package backend_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/hotel"
	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

func testStore(t *testing.T) *backend.Store {
	t.Helper()
	return backend.NewStore(cost.DefaultParams())
}

func createGuests(t *testing.T, s *backend.Store) {
	t.Helper()
	err := s.Create(backend.ColumnFamilyDef{
		Name:           "guests_by_city",
		PartitionCols:  []string{"Hotel.HotelCity"},
		ClusteringCols: []string{"Room.RoomRate", "Guest.GuestID"},
		ValueCols:      []string{"Guest.GuestName"},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStorePutGet(t *testing.T) {
	s := testStore(t)
	createGuests(t, s)
	put := func(city string, rate float64, gid int64, name string) {
		if _, err := s.Put("guests_by_city",
			[]backend.Value{city},
			[]backend.Value{rate, gid},
			[]backend.Value{name}); err != nil {
			t.Fatal(err)
		}
	}
	put("Waterloo", 100, 1, "alice")
	put("Waterloo", 150, 2, "bob")
	put("Waterloo", 80, 3, "carol")
	put("Toronto", 200, 4, "dave")

	res, err := s.Get("guests_by_city", backend.GetRequest{Partition: []backend.Value{"Waterloo"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("records = %d", len(res.Records))
	}
	// Clustering order by rate.
	if res.Records[0].Values[0] != "carol" || res.Records[2].Values[0] != "bob" {
		t.Errorf("order wrong: %v", res.Records)
	}
	if res.SimMillis <= 0 {
		t.Error("no service time charged")
	}

	// Range on the first clustering column.
	res, _ = s.Get("guests_by_city", backend.GetRequest{
		Partition: []backend.Value{"Waterloo"},
		Ranges:    []backend.ClusterRange{{Op: backend.GT, Value: float64(90)}},
	})
	if len(res.Records) != 2 {
		t.Errorf("range records = %d, want 2", len(res.Records))
	}
	res, _ = s.Get("guests_by_city", backend.GetRequest{
		Partition: []backend.Value{"Waterloo"},
		Ranges: []backend.ClusterRange{
			{Op: backend.GE, Value: float64(100)},
			{Op: backend.LE, Value: float64(100)},
		},
	})
	if len(res.Records) != 1 || res.Records[0].Values[0] != "alice" {
		t.Errorf("bounded range = %v", res.Records)
	}

	// Limit.
	res, _ = s.Get("guests_by_city", backend.GetRequest{
		Partition: []backend.Value{"Waterloo"},
		Limit:     2,
	})
	if len(res.Records) != 2 {
		t.Errorf("limited records = %d", len(res.Records))
	}

	// Missing partition returns no records but still costs a request.
	res, _ = s.Get("guests_by_city", backend.GetRequest{Partition: []backend.Value{"Nowhere"}})
	if len(res.Records) != 0 || res.SimMillis <= 0 {
		t.Errorf("empty get = %v", res)
	}
}

func TestStoreUpsertAndDelete(t *testing.T) {
	s := testStore(t)
	createGuests(t, s)
	part := []backend.Value{"Waterloo"}
	clust := []backend.Value{float64(100), int64(1)}
	s.Put("guests_by_city", part, clust, []backend.Value{"alice"})
	s.Put("guests_by_city", part, clust, []backend.Value{"alicia"})
	res, _ := s.Get("guests_by_city", backend.GetRequest{Partition: part})
	if len(res.Records) != 1 || res.Records[0].Values[0] != "alicia" {
		t.Errorf("upsert failed: %v", res.Records)
	}
	existed, pr, err := s.Delete("guests_by_city", part, clust)
	if err != nil || !existed || pr.SimMillis <= 0 {
		t.Errorf("delete = %v %v %v", existed, pr, err)
	}
	existed, _, _ = s.Delete("guests_by_city", part, clust)
	if existed {
		t.Error("double delete reported existing")
	}
	st, _ := s.CFStats("guests_by_city")
	if st.Records != 0 {
		t.Errorf("records after delete = %d", st.Records)
	}
}

func TestStoreErrors(t *testing.T) {
	s := testStore(t)
	createGuests(t, s)
	if err := s.Create(backend.ColumnFamilyDef{Name: "guests_by_city", PartitionCols: []string{"x"}}); err == nil {
		t.Error("duplicate create succeeded")
	}
	if err := s.Create(backend.ColumnFamilyDef{Name: "nokey"}); err == nil {
		t.Error("create without partition key succeeded")
	}
	if _, err := s.Get("nope", backend.GetRequest{}); err == nil {
		t.Error("get on missing family succeeded")
	}
	if _, err := s.Get("guests_by_city", backend.GetRequest{}); err == nil {
		t.Error("get without partition key succeeded")
	}
	if _, err := s.Put("guests_by_city", []backend.Value{"x"}, nil, nil); err == nil {
		t.Error("put with wrong arity succeeded")
	}
	if _, _, err := s.Delete("nope", nil, nil); err == nil {
		t.Error("delete on missing family succeeded")
	}
	s.Drop("guests_by_city")
	if _, err := s.Def("guests_by_city"); err == nil {
		t.Error("def after drop succeeded")
	}
}

// hotelDataset builds a tiny deterministic hotel dataset.
func hotelDataset(t *testing.T) *backend.Dataset {
	t.Helper()
	g := hotel.Graph()
	ds := backend.NewDataset(g)
	hotelE, room, guest, res := g.MustEntity("Hotel"), g.MustEntity("Room"), g.MustEntity("Guest"), g.MustEntity("Reservation")

	cities := []string{"Waterloo", "Toronto"}
	for h := 0; h < 2; h++ {
		if err := ds.AddEntity(hotelE, map[string]backend.Value{
			"HotelID": h, "HotelName": "H", "HotelCity": cities[h],
		}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 4; r++ {
		if err := ds.AddEntity(room, map[string]backend.Value{
			"RoomID": r, "RoomRate": 50.0 * float64(r+1),
		}); err != nil {
			t.Fatal(err)
		}
		ds.Connect(hotelE.Edge("Rooms"), int64(r%2), int64(r))
	}
	for gu := 0; gu < 3; gu++ {
		if err := ds.AddEntity(guest, map[string]backend.Value{
			"GuestID": gu, "GuestName": "g", "GuestEmail": "e",
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := ds.AddEntity(res, map[string]backend.Value{"ResID": i}); err != nil {
			t.Fatal(err)
		}
		ds.Connect(room.Edge("Reservations"), int64(i%4), int64(i))
		ds.Connect(guest.Edge("Reservations"), int64(i%3), int64(i))
	}
	return ds
}

func TestDatasetInstallMaterializesView(t *testing.T) {
	ds := hotelDataset(t)
	g := ds.Graph
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	// The query's materialized view (paper §IV-A1): the equality
	// attribute, then the range attribute and the path's ids, then the
	// selected attributes.
	attr := func(entity, name string) *model.Attribute { return g.MustEntity(entity).Attribute(name) }
	key := func(entity string) *model.Attribute { return g.MustEntity(entity).Key() }
	mv := schema.New(q.Path,
		[]*model.Attribute{attr("Hotel", "HotelCity")},
		[]*model.Attribute{attr("Room", "RoomRate"), key("Guest"), key("Reservation"), key("Room"), key("Hotel")},
		[]*model.Attribute{attr("Guest", "GuestName"), attr("Guest", "GuestEmail")})
	mv.Name = "mv"

	s := testStore(t)
	if err := ds.Install(s, mv); err != nil {
		t.Fatal(err)
	}
	st, err := s.CFStats("mv")
	if err != nil {
		t.Fatal(err)
	}
	// Six reservations, each linking one guest, room, hotel: 6 records.
	if st.Records != 6 {
		t.Errorf("records = %d, want 6", st.Records)
	}
	// Two cities, two partitions.
	if st.Partitions != 2 {
		t.Errorf("partitions = %d, want 2", st.Partitions)
	}
}

func TestDatasetValidation(t *testing.T) {
	ds := hotelDataset(t)
	g := ds.Graph
	guest := g.MustEntity("Guest")
	if err := ds.AddEntity(guest, map[string]backend.Value{"GuestID": 0}); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := ds.AddEntity(guest, map[string]backend.Value{"Nope": 1}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := ds.AddEntity(guest, map[string]backend.Value{"GuestID": "str"}); err == nil {
		t.Error("mistyped id accepted")
	}
	if err := ds.Connect(guest.Edge("Reservations"), int64(99), int64(0)); err == nil {
		t.Error("connect with missing endpoint accepted")
	}
	guests := 0
	if err := ds.ForEachCombination(model.NewPath(guest), func(*backend.Combination) error { guests++; return nil }); err != nil {
		t.Fatal(err)
	}
	if guests != 3 {
		t.Errorf("guests = %d after three rejected inserts, want 3", guests)
	}
	if ds.EntityRow(guest, int64(99)) != nil {
		t.Error("phantom row")
	}
	var reservations []backend.Value
	path := model.NewPath(guest).Append(guest.Edge("Reservations"))
	err := ds.ForEachCombination(path, func(c *backend.Combination) error {
		if id, _ := c.Value(backend.ColumnOf(path, guest.Key())); id == int64(0) {
			rid, _ := c.Value(backend.ColumnOf(path, path.End().Key()))
			reservations = append(reservations, rid)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reservations, []backend.Value{int64(0), int64(3)}) {
		t.Errorf("guest 0's reservations = %v, want [0 3]", reservations)
	}
}

// TestGetIntoReusesTheCallersBuffer: a get with Into returns the records
// a get without it returns, on Into's own array when its capacity
// suffices, so a reused buffer leaves the GetResult as the get's only
// allocation.
func TestGetIntoReusesTheCallersBuffer(t *testing.T) {
	s := testStore(t)
	createGuests(t, s)
	for i := int64(0); i < 5; i++ {
		if _, err := s.Put("guests_by_city", []backend.Value{"Waterloo"},
			[]backend.Value{float64(100 + i), i}, []backend.Value{"guest"}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]backend.Record, 3, 8) // stale length: a get starts at Into[:0]
	for _, req := range []backend.GetRequest{
		{Partition: []backend.Value{"Waterloo"}},
		{Partition: []backend.Value{"Waterloo"}, Limit: 2},
		{Partition: []backend.Value{"Waterloo"}, Ranges: []backend.ClusterRange{{Op: backend.GE, Value: float64(103)}}},
		{Partition: []backend.Value{"Nowhere"}},
	} {
		fresh, err := s.Get("guests_by_city", req)
		if err != nil {
			t.Fatal(err)
		}
		req.Into = buf
		into, err := s.Get("guests_by_city", req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(into.Records, append([]backend.Record{}, fresh.Records...)) || into.SimMillis != fresh.SimMillis {
			t.Errorf("%+v: Into read %v in %v ms, a fresh get %v in %v ms",
				req, into.Records, into.SimMillis, fresh.Records, fresh.SimMillis)
		}
		if cap(into.Records) != cap(buf) || &into.Records[:1][0] != &buf[:1][0] {
			t.Errorf("%+v: the records left the caller's buffer", req)
		}
	}

	req := backend.GetRequest{Partition: []backend.Value{"Waterloo"}, Into: buf}
	if n := testing.AllocsPerRun(100, func() {
		res, err := s.Get("guests_by_city", req)
		if err != nil {
			t.Fatal(err)
		}
		req.Into = res.Records
	}); n != 1 {
		t.Errorf("a get into a large enough buffer allocates %v times, want 1 (the GetResult)", n)
	}

	// A buffer too small is outgrown, as append would.
	res, err := s.Get("guests_by_city", backend.GetRequest{Partition: []backend.Value{"Waterloo"}, Into: buf[:0:2]})
	if err != nil || len(res.Records) != 5 {
		t.Fatalf("outgrown buffer: %v records, %v", len(res.Records), err)
	}
}

// TestUnsupportedKeyValueReleasesLock hands each operation a key cell
// that is not a Value (an int): it must fail with an error, and must not
// leave the family's lock held, so a get on the same family right after
// still returns.
func TestUnsupportedKeyValueReleasesLock(t *testing.T) {
	s := testStore(t)
	createGuests(t, s)
	if _, err := s.Put("guests_by_city", []backend.Value{"Waterloo"}, []backend.Value{100.0, int64(1)}, []backend.Value{"alice"}); err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		name string
		op   func() error
	}{
		{"put partition", func() error {
			_, err := s.Put("guests_by_city", []backend.Value{3}, []backend.Value{100.0, int64(2)}, []backend.Value{"bob"})
			return err
		}},
		{"put clustering", func() error {
			_, err := s.Put("guests_by_city", []backend.Value{"Waterloo"}, []backend.Value{100.0, 2}, []backend.Value{"bob"})
			return err
		}},
		{"delete clustering", func() error {
			_, _, err := s.Delete("guests_by_city", []backend.Value{"Waterloo"}, []backend.Value{100.0, 1})
			return err
		}},
		{"get partition", func() error {
			_, err := s.Get("guests_by_city", backend.GetRequest{Partition: []backend.Value{3}})
			return err
		}},
		{"get range", func() error {
			_, err := s.Get("guests_by_city", backend.GetRequest{
				Partition: []backend.Value{"Waterloo"},
				Ranges:    []backend.ClusterRange{{Op: backend.GE, Value: 90}},
			})
			return err
		}},
	}
	for _, o := range ops {
		name := o.name
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panicked: %v", r)
					t.Errorf("%s: %v", name, err)
				}
			}()
			return o.op()
		}()
		if err == nil {
			t.Errorf("%s: an int key cell was accepted", name)
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.Get("guests_by_city", backend.GetRequest{Partition: []backend.Value{"Waterloo"}})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("after %s: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("after %s: a get on the family did not return within 5 s", name)
		}
	}
}
