package nosedsl_test

import (
	"strings"
	"testing"

	"nose/internal/nosedsl"
	"nose/internal/workload"
)

const hotelDSL = `
# hotel booking example
entity Hotel HotelID 100
attr Hotel.HotelName string
attr Hotel.HotelCity string cardinality 50
entity Room RoomID 10000
attr Room.RoomRate float cardinality 200 size 8
rel Hotel.Rooms Room.Hotel one-to-many

stmt 0.8 RoomsByCity: SELECT Room.RoomID FROM Room
    WHERE Room.Hotel.HotelCity = ?city
    AND Room.RoomRate > ?rate
stmt 0.2: UPDATE Room SET RoomRate = ? WHERE Room.RoomID = ?
stmt mix(read=1,batch=0) AllHotels: SELECT Hotel.HotelName FROM Hotel WHERE Hotel.HotelCity = ?c
`

func TestParseDSL(t *testing.T) {
	g, w, err := nosedsl.Parse(hotelDSL)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Entities()) != 2 {
		t.Errorf("entities = %d", len(g.Entities()))
	}
	hotel := g.MustEntity("Hotel")
	if hotel.Count != 100 || hotel.Key().Name != "HotelID" {
		t.Errorf("hotel = %+v", hotel)
	}
	if got := hotel.Attribute("HotelCity").DistinctValues(); got != 50 {
		t.Errorf("HotelCity cardinality = %d", got)
	}
	if hotel.Edge("Rooms") == nil {
		t.Error("relationship missing")
	}
	if len(w.Statements) != 3 {
		t.Fatalf("statements = %d", len(w.Statements))
	}
	// Multi-line continuation: the query carries both predicates.
	q := w.StatementByLabel("RoomsByCity").Statement.(*workload.Query)
	if len(q.Where) != 2 {
		t.Errorf("RoomsByCity predicates = %v", q.Where)
	}
	if w.StatementByLabel("RoomsByCity").Weight != 0.8 {
		t.Error("weight not parsed")
	}
	// Mix weights.
	mixed := w.StatementByLabel("AllHotels")
	if mixed.WeightIn("read") != 1 || mixed.WeightIn("batch") != 0 {
		t.Errorf("mix weights = %v", mixed.MixWeights)
	}
	// With no mix selected, the first mix as written applies — "read",
	// though "batch" sorts before it.
	if got := mixed.WeightIn(""); got != 1 {
		t.Errorf("default weight = %v, want the first written mix's 1", got)
	}
}

func TestParseDSLErrors(t *testing.T) {
	cases := []string{
		`entity X`,                            // arity
		`entity X XID nope`,                   // bad count
		`entity X XID 5` + "\nentity X XID 5", // duplicate
		`attr X.Y string`,                     // no entity
		`entity X XID 5` + "\nattr X.Y blob",
		`entity X XID 5` + "\nattr XY string",
		`entity X XID 5` + "\nattr X.Y string cardinality`",
		`entity X XID 5` + "\nattr X.Y string weird 3",
		`rel A.B C.D one-to-many`, // missing entities
		`entity X XID 5` + "\nrel X.Y X one-to-many",
		`frobnicate`,                                 // unknown directive
		`stmt 1 SELECT Foo FROM Bar`,                 // missing colon
		`stmt : SELECT X FROM Y`,                     // missing weight
		`entity X XID 5` + "\nstmt z: DELETE FROM X", // bad weight
		`entity X XID 5` + "\nstmt mix(a): DELETE FROM X",
		`entity X XID 5` + "\nstmt mix(a=z): DELETE FROM X",
		`entity X XID 5` + "\nstmt 1: SELECT nothing`",
	}
	for _, src := range cases {
		if _, _, err := nosedsl.Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseDSLRoundTripStatements(t *testing.T) {
	g, w, err := nosedsl.Parse(hotelDSL)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range w.Statements {
		if _, err := workload.Parse(g, ws.Statement.String()); err != nil {
			t.Errorf("re-parsing %q: %v", ws.Statement, err)
		}
	}
	if !strings.Contains(w.Statements[0].Statement.String(), "RoomRate") {
		t.Error("statement text lost content")
	}
}
