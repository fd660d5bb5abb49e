package migrate_test

import (
	"fmt"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/hotel"
	"nose/internal/migrate"
	"nose/internal/model"
	"nose/internal/schema"
)

// guestView is the paper's Fig. 3 materialized view:
// [HotelCity][RoomRate, GuestID][GuestName, GuestEmail].
func guestView(t *testing.T, g *model.Graph) *schema.Index {
	t.Helper()
	path, err := g.ResolvePath([]string{"Guest", "Reservations", "Room", "Hotel"})
	if err != nil {
		t.Fatal(err)
	}
	hotelE, room, guest := g.MustEntity("Hotel"), g.MustEntity("Room"), g.MustEntity("Guest")
	return schema.New(path,
		[]*model.Attribute{hotelE.Attribute("HotelCity")},
		[]*model.Attribute{room.Attribute("RoomRate"), guest.Key()},
		[]*model.Attribute{guest.Attribute("GuestName"), guest.Attribute("GuestEmail")},
	)
}

// guestPK is a primary-key family over the Guest entity alone.
func guestPK(t *testing.T, g *model.Graph) *schema.Index {
	t.Helper()
	guest := g.MustEntity("Guest")
	return schema.New(model.NewPath(guest),
		[]*model.Attribute{guest.Key()},
		nil,
		[]*model.Attribute{guest.Attribute("GuestName")},
	)
}

// tinyDataset populates a deterministic hotel dataset small enough to
// count by hand: 2 hotels, 4 rooms, 3 guests, 5 reservations.
func tinyDataset(t *testing.T, g *model.Graph) *backend.Dataset {
	t.Helper()
	ds := backend.NewDataset(g)
	hotelE := g.MustEntity("Hotel")
	room := g.MustEntity("Room")
	guest := g.MustEntity("Guest")
	res := g.MustEntity("Reservation")
	add := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		add(ds.AddEntity(hotelE, map[string]backend.Value{
			"HotelID": i, "HotelCity": fmt.Sprintf("City%d", i),
		}))
	}
	for i := 0; i < 4; i++ {
		add(ds.AddEntity(room, map[string]backend.Value{
			"RoomID": i, "RoomRate": float64(100 + 10*i),
		}))
		add(ds.Connect(hotelE.Edge("Rooms"), int64(i%2), int64(i)))
	}
	for i := 0; i < 3; i++ {
		add(ds.AddEntity(guest, map[string]backend.Value{
			"GuestID": i, "GuestName": fmt.Sprintf("G%d", i), "GuestEmail": fmt.Sprintf("g%d@x", i),
		}))
	}
	for i := 0; i < 5; i++ {
		add(ds.AddEntity(res, map[string]backend.Value{"ResID": i}))
		add(ds.Connect(room.Edge("Reservations"), int64(i%4), int64(i)))
		add(ds.Connect(guest.Edge("Reservations"), int64(i%3), int64(i)))
	}
	return ds
}

func TestBuildCostTracksSizeAndScale(t *testing.T) {
	g := hotel.Graph()
	p := migrate.DefaultCostParams()
	view, pk := guestView(t, g), guestPK(t, g)
	if c := migrate.BuildCost(pk, p); c <= p.PerFamilyMillis {
		t.Errorf("pk build cost %v, want above the fixed charge %v", c, p.PerFamilyMillis)
	}
	// The multi-entity view materializes the reservation fanout; it must
	// cost more than the single-entity primary key family.
	if migrate.BuildCost(view, p) <= migrate.BuildCost(pk, p) {
		t.Errorf("view (%v) not costlier than pk (%v)",
			migrate.BuildCost(view, p), migrate.BuildCost(pk, p))
	}
	half := p.Scale(0.5)
	if got, want := migrate.BuildCost(view, half), migrate.BuildCost(view, p)/2; got != want {
		t.Errorf("scaled cost %v, want %v", got, want)
	}
	if migrate.EstimatedCost([]*schema.Index{view, pk}, p) !=
		migrate.BuildCost(view, p)+migrate.BuildCost(pk, p) {
		t.Error("EstimatedCost is not the sum of BuildCosts")
	}
}

func TestDiff(t *testing.T) {
	g := hotel.Graph()
	view, pk := guestView(t, g), guestPK(t, g)

	next := schema.NewSchema()
	next.Add(view)
	next.Add(pk)
	build, drop := migrate.Diff(nil, next)
	if len(build) != 2 || len(drop) != 0 {
		t.Fatalf("nil prev: build=%d drop=%d, want 2/0", len(build), len(drop))
	}

	build, drop = migrate.Diff(next, next)
	if len(build) != 0 || len(drop) != 0 {
		t.Fatalf("identical schemas: build=%d drop=%d, want 0/0", len(build), len(drop))
	}

	prev := schema.NewSchema()
	prev.Add(pk)
	only := schema.NewSchema()
	only.Add(view)
	build, drop = migrate.Diff(prev, only)
	if len(build) != 1 || build[0].ID() != view.ID() {
		t.Errorf("build = %v, want the view", build)
	}
	if len(drop) != 1 || drop[0].ID() != pk.ID() {
		t.Errorf("drop = %v, want the pk family", drop)
	}
}

// apply drives a live migration from StartLive to StateDone in one go,
// the way harness.System.Migrate does: the copy is the store's own put,
// and the first failed put aborts the migration and is returned.
func apply(ds *backend.Dataset, s migrate.Store, build, drop []*schema.Index, p migrate.CostParams) (*migrate.Result, error) {
	var putErr error
	put := func(cf string, partition, clustering, values []backend.Value) (float64, error) {
		pr, err := s.Put(cf, partition, clustering, values)
		if err != nil {
			putErr = err
			return 0, err
		}
		return pr.SimMillis, nil
	}
	l, err := migrate.StartLive(ds, s, build, drop, put, migrate.LiveOptions{Params: p})
	if err != nil {
		return nil, err
	}
	for l.State() != migrate.StateDone {
		if _, err := l.Step(); err != nil {
			return nil, err
		}
		if putErr != nil {
			l.Abort()
			return nil, putErr
		}
	}
	res := l.Result()
	return &res, nil
}

func TestApplyBuildsAndCharges(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	p := migrate.DefaultCostParams()

	sch := schema.NewSchema()
	view := sch.Add(guestView(t, g))
	pk := sch.Add(guestPK(t, g))

	res, err := apply(ds, s, []*schema.Index{view, pk}, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Built) != 2 || res.Built[0] != view.Name || res.Built[1] != pk.Name {
		t.Errorf("Built = %v", res.Built)
	}
	// 5 reservations materialize 5 view records; 3 guests 3 pk records.
	if res.Records != 8 {
		t.Errorf("Records = %d, want 8", res.Records)
	}
	if res.SimMillis <= 2*p.PerFamilyMillis {
		t.Errorf("SimMillis = %v, want above the fixed charges", res.SimMillis)
	}
	// The built family must be readable.
	got, err := s.Get(view.Name, backend.GetRequest{Partition: []backend.Value{"City0"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) == 0 {
		t.Error("no records materialized for City0")
	}

	// A second migration drops the view; reading it must fail.
	res, err = apply(ds, s, nil, []*schema.Index{view}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != view.Name || res.SimMillis != 0 {
		t.Errorf("drop result = %+v", res)
	}
	if _, err := s.Get(view.Name, backend.GetRequest{Partition: []backend.Value{"City0"}}); err == nil {
		t.Error("dropped family still readable")
	}
}

func TestApplyRejectsUnnamedIndex(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	if _, err := apply(ds, s, []*schema.Index{guestPK(t, g)}, nil, migrate.DefaultCostParams()); err == nil {
		t.Error("unnamed index accepted")
	}
}
