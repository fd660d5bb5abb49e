package backend_test

import (
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/hotel"
	"nose/internal/model"
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
	mv := enumerator.MaterializedView(q)
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
	if err := ds.ForEachCombination(model.NewPath(guest), func(map[string]backend.Value) error { guests++; return nil }); err != nil {
		t.Fatal(err)
	}
	if guests != 3 {
		t.Errorf("guests = %d after three rejected inserts, want 3", guests)
	}
	if ds.EntityRow(guest, int64(99)) != nil {
		t.Error("phantom row")
	}
	if got := len(ds.Neighbors(guest.Edge("Reservations"), int64(0))); got != 2 {
		t.Errorf("neighbors = %d, want 2", got)
	}
}
