package workload_test

import (
	"strings"
	"testing"

	"nose/internal/hotel"
	"nose/internal/workload"
)

func TestParseExampleQuery(t *testing.T) {
	g := hotel.Graph()
	q, err := workload.ParseQuery(g, hotel.ExampleQuery)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if got := q.Path.String(); got != "Guest.Reservations.Room.Hotel" {
		t.Errorf("path = %s", got)
	}
	if len(q.Select) != 2 || q.Select[0].Attr.Name != "GuestName" || q.Select[0].Index != 0 {
		t.Errorf("select = %v", q.Select)
	}
	if len(q.Where) != 2 {
		t.Fatalf("where = %v", q.Where)
	}
	city := q.Where[0]
	if city.Ref.Attr.QualifiedName() != "Hotel.HotelCity" || city.Ref.Index != 3 || city.Op != workload.Eq || city.Param != "city" {
		t.Errorf("city predicate = %+v", city)
	}
	rate := q.Where[1]
	if rate.Ref.Attr.QualifiedName() != "Room.RoomRate" || rate.Ref.Index != 2 || rate.Op != workload.Gt {
		t.Errorf("rate predicate = %+v", rate)
	}
	if len(q.EqualityPredicates()) != 1 || len(q.RangePredicates()) != 1 {
		t.Error("predicate classification wrong")
	}
}

func TestParsePOIQueryPathAnchors(t *testing.T) {
	// Fig. 9: FROM is a multi-segment path; WHERE references anchor by
	// entity name (Room) and by segment name (PointsOfInterest).
	g := hotel.Graph()
	q, err := workload.ParseQuery(g, hotel.POIQuery)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if got := q.Path.String(); got != "Room.Hotel.PointsOfInterest" {
		t.Errorf("path = %s", got)
	}
	if q.Where[0].Ref.Index != 0 || q.Where[1].Ref.Index != 2 {
		t.Errorf("anchor indexes = %d, %d", q.Where[0].Ref.Index, q.Where[1].Ref.Index)
	}
	if q.Where[1].Ref.Attr.QualifiedName() != "POI.POIID" {
		t.Errorf("POI predicate attr = %s", q.Where[1].Ref.Attr.QualifiedName())
	}
}

func TestParseOrderByAndLimit(t *testing.T) {
	g := hotel.Graph()
	q, err := workload.ParseQuery(g,
		`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c ORDER BY Room.RoomRate, Room.RoomNumber LIMIT 20`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Order) != 2 || q.Order[0].Attr.Name != "RoomRate" {
		t.Errorf("order = %v", q.Order)
	}
	if q.Limit != 20 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseAnonymousParamsAutoNamed(t *testing.T) {
	g := hotel.Graph()
	q, err := workload.ParseQuery(g,
		`SELECT Guest.GuestName FROM Guest WHERE Guest.GuestID = ? AND Guest.GuestEmail = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 || q.Where[0].Param == "" || q.Where[0].Param == q.Where[1].Param {
		t.Errorf("predicates = %v", q.Where)
	}
}

func TestParseQueryRoundTrip(t *testing.T) {
	g := hotel.Graph()
	for _, src := range []string{hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery} {
		q := workload.MustParseQuery(g, src)
		reparsed, err := workload.ParseQuery(g, q.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", q.String(), err)
		}
		if reparsed.String() != q.String() {
			t.Errorf("round trip changed: %q vs %q", q.String(), reparsed.String())
		}
	}
}

func TestParseUpdateStatements(t *testing.T) {
	g := hotel.Graph()
	for _, src := range hotel.UpdateStatements {
		st, err := workload.Parse(g, src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		// Every update statement round-trips through String.
		if _, err := workload.Parse(g, st.String()); err != nil {
			t.Errorf("re-parsing %q: %v", st.String(), err)
		}
	}
}

func TestParseInsertDetails(t *testing.T) {
	g := hotel.Graph()
	st := workload.MustParse(g, hotel.UpdateStatements[0])
	ins, ok := st.(*workload.Insert)
	if !ok {
		t.Fatalf("statement = %T, want *Insert", st)
	}
	if ins.Entity.Name != "Reservation" || ins.KeyParam != "rid" {
		t.Errorf("entity %s keyparam %s", ins.Entity.Name, ins.KeyParam)
	}
	if len(ins.Set) != 1 || ins.Set[0].Attr.Name != "ResEndDate" {
		t.Errorf("set = %v", ins.Set)
	}
	if len(ins.Connections) != 2 || ins.Connections[0].Edge.Name != "Guest" || ins.Connections[1].Edge.Name != "Room" {
		t.Errorf("connections = %v", ins.Connections)
	}
	if got := len(ins.WrittenAttributes()); got != 2 {
		t.Errorf("written attributes = %d, want 2 (key + ResEndDate)", got)
	}
	if ins.WriteEntity().Name != "Reservation" {
		t.Error("WriteEntity mismatch")
	}
}

func TestParseUpdateWithPath(t *testing.T) {
	g := hotel.Graph()
	st := workload.MustParse(g, hotel.UpdateStatements[2])
	up, ok := st.(*workload.Update)
	if !ok {
		t.Fatalf("statement = %T, want *Update", st)
	}
	if up.Entity().Name != "Reservation" || up.Path.String() != "Reservation.Guest" {
		t.Errorf("entity %s path %s", up.Entity().Name, up.Path)
	}
	if len(up.Where) != 1 || up.Where[0].Ref.Index != 1 {
		t.Errorf("where = %v", up.Where)
	}
	if len(up.WrittenAttributes()) != 1 || up.WrittenAttributes()[0].Name != "ResEndDate" {
		t.Errorf("written = %v", up.WrittenAttributes())
	}
}

func TestParseDelete(t *testing.T) {
	g := hotel.Graph()
	st := workload.MustParse(g, hotel.UpdateStatements[1])
	del, ok := st.(*workload.Delete)
	if !ok {
		t.Fatalf("statement = %T, want *Delete", st)
	}
	if del.Entity().Name != "Guest" || len(del.Where) != 1 {
		t.Errorf("delete = %+v", del)
	}
}

func TestParseConnectDisconnect(t *testing.T) {
	g := hotel.Graph()
	c := workload.MustParse(g, hotel.UpdateStatements[3]).(*workload.Connect)
	if c.Disconnect || c.Edge.Name != "Reservations" || c.Edge.From.Name != "Guest" {
		t.Errorf("connect = %+v", c)
	}
	if c.FromParam != "guestid" || c.ToParam != "resid" {
		t.Errorf("params = %s, %s", c.FromParam, c.ToParam)
	}
	d := workload.MustParse(g, hotel.UpdateStatements[4]).(*workload.Connect)
	if !d.Disconnect {
		t.Error("DISCONNECT not flagged")
	}
}

func TestParseErrors(t *testing.T) {
	g := hotel.Graph()
	cases := []string{
		``,
		`FROB Guest`,
		`SELECT FROM Guest`,
		`SELECT Guest.Nope FROM Guest`,
		`SELECT Guest.GuestName FROM Nope`,
		`SELECT Guest.GuestName FROM Guest WHERE Hotel.HotelCity = ?`, // off-path reference
		`SELECT Guest.GuestName FROM Guest WHERE Guest.GuestID ?`,     // missing operator
		`SELECT Guest.GuestName FROM Guest WHERE Guest.GuestID = 5`,   // literal, not parameter
		`SELECT Guest.GuestName FROM Guest LIMIT x`,                   // bad limit
		`SELECT Guest.GuestName FROM Guest WHERE GuestID = ?`,         // unqualified reference
		`INSERT INTO Nope SET X = ?`,
		`INSERT INTO Guest SET Nope = ?`,
		`INSERT INTO Guest SET GuestName > ?`,
		`INSERT INTO Guest SET GuestID = ? AND CONNECT TO Nope(?x)`,
		`UPDATE Guest FROM Reservation.Guest SET GuestName = ?`, // path not anchored at entity
		`UPDATE Nope SET X = ?`,
		`DELETE FROM Nope`,
		`CONNECT Nope(?a) TO Reservations(?b)`,
		`CONNECT Guest(?a) TO Nope(?b)`,
		`CONNECT Guest(?a) TO Reservations(?b) extra`,
		`SELECT Guest.GuestName FROM Guest trailing`,
		`SELECT Guest.GuestName FROM Guest WHERE Guest.GuestName ~ ?`, // bad char
	}
	for _, src := range cases {
		if _, err := workload.Parse(g, src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestRangeOnUnorderedAttributeRejected(t *testing.T) {
	g := hotel.Graph()
	g.MustEntity("Guest").AddAttribute("GuestActive", 5) // BooleanType
	if _, err := workload.Parse(g, `SELECT Guest.GuestName FROM Guest WHERE Guest.GuestActive > ?`); err == nil {
		t.Error("expected range-on-boolean to be rejected")
	}
	if !strings.Contains(workload.MustParseQuery(g, `SELECT Guest.GuestName FROM Guest WHERE Guest.GuestActive = ?`).String(), "GuestActive") {
		t.Error("equality on boolean should parse")
	}
}

func TestAmbiguousReferenceAgreement(t *testing.T) {
	// Room appears as both entity name and edge segment name at the
	// same position; resolution must agree rather than report
	// ambiguity.
	g := hotel.Graph()
	q, err := workload.ParseQuery(g,
		`SELECT Guest.GuestName FROM Guest.Reservations.Room WHERE Room.RoomRate > ? AND Guest.GuestID = ?`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if q.Where[0].Ref.Index != 2 {
		t.Errorf("Room anchor index = %d", q.Where[0].Ref.Index)
	}
}
