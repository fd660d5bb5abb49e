package schema_test

import (
	"strings"
	"testing"

	"nose/internal/hotel"
	"nose/internal/model"
	"nose/internal/schema"
)

// figure3View builds the materialized view the paper derives for the
// Fig. 3 query: [HotelCity][RoomRate, GuestID][GuestName, GuestEmail]
// over the path Guest.Reservations.Room.Hotel (reversed: the lookup
// starts from HotelCity).
func figure3View(g *model.Graph) *schema.Index {
	path, _ := g.ResolvePath([]string{"Guest", "Reservations", "Room", "Hotel"})
	hotelE, room, guest := g.MustEntity("Hotel"), g.MustEntity("Room"), g.MustEntity("Guest")
	return schema.New(path,
		[]*model.Attribute{hotelE.Attribute("HotelCity")},
		[]*model.Attribute{room.Attribute("RoomRate"), guest.Key()},
		[]*model.Attribute{guest.Attribute("GuestName"), guest.Attribute("GuestEmail")},
	)
}

func TestIndexTripleNotation(t *testing.T) {
	g := hotel.Graph()
	x := figure3View(g)
	want := "[Hotel.HotelCity][Room.RoomRate, Guest.GuestID][Guest.GuestEmail, Guest.GuestName]"
	if got := x.String(); got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	if err := x.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestIndexIDCanonical(t *testing.T) {
	g := hotel.Graph()
	a := figure3View(g)
	// Same index with value attributes supplied in the other order.
	path, _ := g.ResolvePath([]string{"Guest", "Reservations", "Room", "Hotel"})
	guest := g.MustEntity("Guest")
	b := schema.New(path,
		[]*model.Attribute{g.MustEntity("Hotel").Attribute("HotelCity")},
		[]*model.Attribute{g.MustEntity("Room").Attribute("RoomRate"), guest.Key()},
		[]*model.Attribute{guest.Attribute("GuestEmail"), guest.Attribute("GuestName")},
	)
	if a.ID() != b.ID() {
		t.Error("value order should not affect identity")
	}
	// Clustering order does affect identity.
	c := schema.New(path,
		[]*model.Attribute{g.MustEntity("Hotel").Attribute("HotelCity")},
		[]*model.Attribute{guest.Key(), g.MustEntity("Room").Attribute("RoomRate")},
		[]*model.Attribute{guest.Attribute("GuestName"), guest.Attribute("GuestEmail")},
	)
	if a.ID() == c.ID() {
		t.Error("clustering order must affect identity")
	}
}

func TestIndexAttributeQueries(t *testing.T) {
	g := hotel.Graph()
	x := figure3View(g)
	guest := g.MustEntity("Guest")
	if !x.Contains(guest.Attribute("GuestName")) {
		t.Error("Contains(GuestName) = false")
	}
	if !x.Contains(guest.Attribute("GuestID")) {
		t.Error("clustering attr not found")
	}
	if x.Contains(g.MustEntity("Hotel").Attribute("HotelPhone")) {
		t.Error("phantom attribute found")
	}
	if !x.ContainsAll([]*model.Attribute{guest.Attribute("GuestName"), guest.Key()}) {
		t.Error("ContainsAll failed")
	}
	if x.ContainsAll([]*model.Attribute{g.MustEntity("Hotel").Attribute("HotelPhone")}) {
		t.Error("ContainsAll over-reported")
	}
	if got := len(x.KeyAttributes()); got != 3 {
		t.Errorf("KeyAttributes = %d, want 3", got)
	}
	if got := len(x.AllAttributes()); got != 5 {
		t.Errorf("AllAttributes = %d, want 5", got)
	}
}

// TestContainmentDoesNotAllocate: plan generation asks Contains and
// ContainsAll once per (candidate, needed attribute); both must answer
// from the index's own slices.
func TestContainmentDoesNotAllocate(t *testing.T) {
	g := hotel.Graph()
	x := figure3View(g)
	guest := g.MustEntity("Guest")
	stored := []*model.Attribute{guest.Attribute("GuestEmail"), guest.Key(), g.MustEntity("Hotel").Attribute("HotelCity")}
	absent := g.MustEntity("Hotel").Attribute("HotelPhone")
	var sink bool
	if n := testing.AllocsPerRun(100, func() { sink = x.Contains(stored[0]) || x.Contains(absent) }); n != 0 {
		t.Errorf("Contains allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = x.ContainsAll(stored) }); n != 0 {
		t.Errorf("ContainsAll allocates %v times per call", n)
	}
	_ = sink
}

func TestIndexValidateErrors(t *testing.T) {
	g := hotel.Graph()
	guest := g.MustEntity("Guest")
	path := model.NewPath(guest)

	noPartition := schema.New(path, nil, nil, []*model.Attribute{guest.Attribute("GuestName")})
	if err := noPartition.Validate(); err == nil {
		t.Error("empty partition key accepted")
	}

	dup := schema.New(path,
		[]*model.Attribute{guest.Key()},
		nil,
		[]*model.Attribute{guest.Key()})
	if err := dup.Validate(); err == nil {
		t.Error("repeated attribute accepted")
	}

	offPath := schema.New(path,
		[]*model.Attribute{guest.Key()},
		nil,
		[]*model.Attribute{g.MustEntity("Hotel").Attribute("HotelCity")})
	if err := offPath.Validate(); err == nil {
		t.Error("off-path attribute accepted")
	}
}

func TestIndexStatistics(t *testing.T) {
	g := hotel.Graph()
	x := figure3View(g)
	// Path Guest.Reservations.Room.Hotel: 50k guests × 5 reservations
	// each × 1 room × 1 hotel = 250k records.
	if got := x.Records(); got != 250_000 {
		t.Errorf("Records = %v, want 250000", got)
	}
	// Row: city(32) + rate(8) + guestid(8) + name(32) + email(32).
	if got := x.RowSize(); got != 112 {
		t.Errorf("RowSize = %v, want 112", got)
	}
	if got := x.SizeBytes(); got != 250_000*112 {
		t.Errorf("SizeBytes = %v", got)
	}
}

func TestEntityFanout(t *testing.T) {
	g := hotel.Graph()
	x := figure3View(g)
	// Each hotel appears in 250k/100 = 2500 records: updating one
	// hotel's city rewrites 2500 records.
	if got := x.EntityFanout(g.MustEntity("Hotel")); got != 2500 {
		t.Errorf("EntityFanout(Hotel) = %v, want 2500", got)
	}
	if got := x.EntityFanout(g.MustEntity("Guest")); got != 5 {
		t.Errorf("EntityFanout(Guest) = %v, want 5", got)
	}
	if got := x.EntityFanout(g.MustEntity("POI")); got != 0 {
		t.Errorf("EntityFanout(off-path) = %v, want 0", got)
	}
}

func TestSchemaAddAndDedup(t *testing.T) {
	g := hotel.Graph()
	s := schema.NewSchema()
	a := s.Add(figure3View(g))
	b := s.Add(figure3View(g))
	if a != b {
		t.Error("structurally identical index not deduplicated")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if a.Name == "" {
		t.Error("no name assigned")
	}
	if s.Lookup(figure3View(g)) != a {
		t.Error("Lookup failed")
	}
	guest := g.MustEntity("Guest")
	other := schema.New(model.NewPath(guest),
		[]*model.Attribute{guest.Key()}, nil,
		[]*model.Attribute{guest.Attribute("GuestName")})
	s.Add(other)
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if s.TotalSizeBytes() <= a.SizeBytes() {
		t.Error("TotalSizeBytes did not accumulate")
	}
	if !strings.Contains(s.String(), a.Name) {
		t.Error("String() missing index name")
	}
}

func TestSchemaPreservesExplicitNames(t *testing.T) {
	g := hotel.Graph()
	s := schema.NewSchema()
	x := figure3View(g)
	x.Name = "guests_by_city"
	s.Add(x)
	if got := s.Indexes()[0].Name; got != "guests_by_city" {
		t.Errorf("explicit name lost: %q", got)
	}
}
