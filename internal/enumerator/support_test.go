package enumerator_test

import (
	"slices"
	"strings"
	"testing"

	"nose/internal/enumerator"
	"nose/internal/hotel"
	"nose/internal/schema"
	"nose/internal/workload"
)

func TestModifies(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	mv := enumerator.MaterializedView(q) // [HotelCity][RoomRate, GuestID, ids][GuestName, GuestEmail]

	// UPDATE of a stored attribute modifies the view.
	up := workload.MustParse(g, `UPDATE Guest SET GuestName = ? WHERE Guest.GuestID = ?`).(*workload.Update)
	if !enumerator.Modifies(up, mv) {
		t.Error("update of GuestName should modify the view")
	}
	// UPDATE of an unstored attribute does not.
	up2 := workload.MustParse(g, `UPDATE Hotel SET HotelPhone = ? WHERE Hotel.HotelID = ?`).(*workload.Update)
	if enumerator.Modifies(up2, mv) {
		t.Error("update of HotelPhone should not modify the view")
	}
	// DELETE of any path entity modifies the view.
	del := workload.MustParse(g, `DELETE FROM Room WHERE Room.RoomID = ?`).(*workload.Delete)
	if !enumerator.Modifies(del, mv) {
		t.Error("delete of Room should modify the view")
	}
	// DELETE of an off-path entity does not.
	delPOI := workload.MustParse(g, `DELETE FROM POI WHERE POI.POIID = ?`).(*workload.Delete)
	if enumerator.Modifies(delPOI, mv) {
		t.Error("delete of POI should not modify the view")
	}
	// CONNECT along a traversed edge modifies the view.
	conn := workload.MustParse(g, `CONNECT Guest(?g) TO Reservations(?r)`).(*workload.Connect)
	if !enumerator.Modifies(conn, mv) {
		t.Error("connect along Guest-Reservation should modify the view")
	}
	// CONNECT along an untraversed edge does not.
	connPOI := workload.MustParse(g, `CONNECT Hotel(?h) TO PointsOfInterest(?p)`).(*workload.Connect)
	if enumerator.Modifies(connPOI, mv) {
		t.Error("connect along Hotel-POI should not modify the view")
	}
}

func TestModifiesInsertNeedsConnections(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	mv := enumerator.MaterializedView(q)

	// A reservation inserted with both its guest and room connections
	// creates complete records in the view.
	full := workload.MustParse(g,
		`INSERT INTO Reservation SET ResID = ?, ResEndDate = ? AND CONNECT TO Guest(?g), Room(?r)`).(*workload.Insert)
	if !enumerator.Modifies(full, mv) {
		t.Error("fully-connected insert should modify the view")
	}
	// Without the Room connection no complete path combination exists.
	partial := workload.MustParse(g,
		`INSERT INTO Reservation SET ResID = ? AND CONNECT TO Guest(?g)`).(*workload.Insert)
	if enumerator.Modifies(partial, mv) {
		t.Error("partially-connected insert should not modify the view")
	}
	// An insert of an entity off the path never modifies the view.
	off := workload.MustParse(g, `INSERT INTO POI SET POIID = ?`).(*workload.Insert)
	if enumerator.Modifies(off, mv) {
		t.Error("off-path insert should not modify the view")
	}
}

func TestSupportQueriesForUpdateByKey(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	mv := enumerator.MaterializedView(q)

	// Updating a guest's name given their id: the view's records for
	// that guest span the whole path, so a side query walks from Guest
	// toward Hotel gathering the other key attributes and values.
	up := workload.MustParse(g, `UPDATE Guest SET GuestName = ? WHERE Guest.GuestID = ?`).(*workload.Update)
	sqs := enumerator.SupportQueries(up, mv)
	if len(sqs) == 0 {
		t.Fatal("no support queries")
	}
	// One id-query for the guest's own needed attributes (GuestEmail)
	// plus one side query along Guest..Hotel.
	var sideFound, ownFound bool
	for _, sq := range sqs {
		if sq.Path.Len() == 1 && sq.Path.Start.Name == "Guest" {
			ownFound = true
		}
		if sq.Path.Len() == 4 {
			sideFound = true
			// The side query must select the hidden ids and the
			// partition attribute HotelCity.
			var names []string
			for _, s := range sq.Select {
				names = append(names, s.Attr.QualifiedName())
			}
			want := map[string]bool{}
			for _, n := range names {
				want[n] = true
			}
			for _, need := range []string{"Hotel.HotelCity", "Room.RoomRate", "Reservation.ResID", "Room.RoomID", "Hotel.HotelID"} {
				if !want[need] {
					t.Errorf("side query missing %s (has %v)", need, names)
				}
			}
		}
	}
	if !ownFound {
		t.Error("missing own-attribute support query for GuestEmail")
	}
	if !sideFound {
		t.Error("missing side support query toward Hotel")
	}
}

func TestSupportQueriesLocateWhenKeyUnknown(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	mv := enumerator.MaterializedView(q)

	// Fig. 9-style update: rooms are selected through a path, so a
	// locate query is needed.
	up := workload.MustParse(g,
		`UPDATE Room FROM Room.Reservations.Guest SET RoomRate = ?r WHERE Guest.GuestID = ?`).(*workload.Update)
	sqs := enumerator.SupportQueries(up, mv)
	locate := false
	for _, sq := range sqs {
		if strings.Contains(sq.Label, "/locate") {
			locate = true
			if sq.Path.String() != "Room.Reservations.Guest" {
				t.Errorf("locate path = %s", sq.Path)
			}
			if sq.Select[0].Attr.Name != "RoomID" {
				t.Errorf("locate query selects %v", sq.Select)
			}
		}
	}
	if !locate {
		t.Errorf("no locate support query; got %v", sqs)
	}
}

func TestSupportQueriesForConnect(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	mv := enumerator.MaterializedView(q)

	conn := workload.MustParse(g, `CONNECT Guest(?g) TO Reservations(?r)`).(*workload.Connect)
	sqs := enumerator.SupportQueries(conn, mv)
	if len(sqs) == 0 {
		t.Fatal("no support queries for connect")
	}
	// The reservation side must walk Reservation.Room.Hotel to find
	// the new records' partition keys.
	found := false
	for _, sq := range sqs {
		if sq.Path.String() == "Reservation.Room.Hotel" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing Reservation.Room.Hotel side query; got %d queries", len(sqs))
	}
}

func TestSupportQueriesForInsert(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	mv := enumerator.MaterializedView(q)

	ins := workload.MustParse(g,
		`INSERT INTO Reservation SET ResID = ?, ResEndDate = ? AND CONNECT TO Guest(?g), Room(?r)`).(*workload.Insert)
	sqs := enumerator.SupportQueries(ins, mv)
	var paths []string
	for _, sq := range sqs {
		paths = append(paths, sq.Path.String())
	}
	// Needed: guest attributes by id (path Guest) and the room side
	// (Room.Hotel) for city/rate.
	var haveGuest, haveRoomSide bool
	for _, p := range paths {
		if p == "Guest" {
			haveGuest = true
		}
		if p == "Room.Hotel" {
			haveRoomSide = true
		}
	}
	if !haveGuest || !haveRoomSide {
		t.Errorf("support query paths = %v", paths)
	}
}

func TestAffectedRecords(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	mv := enumerator.MaterializedView(q) // 250k records

	// One guest's records: 250k / 50k guests = 5.
	up := workload.MustParse(g, `UPDATE Guest SET GuestName = ? WHERE Guest.GuestID = ?`).(*workload.Update)
	if got := enumerator.AffectedRecords(up, mv); got != 5 {
		t.Errorf("AffectedRecords(update guest) = %v, want 5", got)
	}
	// One new reservation: 250k / 250k reservations = 1.
	ins := workload.MustParse(g,
		`INSERT INTO Reservation SET ResID = ? AND CONNECT TO Guest(?g), Room(?r)`).(*workload.Insert)
	if got := enumerator.AffectedRecords(ins, mv); got != 1 {
		t.Errorf("AffectedRecords(insert reservation) = %v, want 1", got)
	}
	// One connect along Guest->Reservations: edge instances = 250k.
	conn := workload.MustParse(g, `CONNECT Guest(?g) TO Reservations(?r)`).(*workload.Connect)
	if got := enumerator.AffectedRecords(conn, mv); got != 1 {
		t.Errorf("AffectedRecords(connect) = %v, want 1", got)
	}
	// A non-modifying statement affects nothing.
	off := workload.MustParse(g, `UPDATE Hotel SET HotelPhone = ? WHERE Hotel.HotelID = ?`).(*workload.Update)
	if got := enumerator.AffectedRecords(off, mv); got != 0 {
		t.Errorf("AffectedRecords(non-modifying) = %v, want 0", got)
	}
}

func TestEnumerateWorkloadAlgorithm1(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	w.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 0.8)
	w.Add(workload.MustParse(g, `UPDATE Guest SET GuestName = ? WHERE Guest.GuestID = ?`), 0.2)

	res, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.Len() == 0 {
		t.Fatal("empty pool")
	}
	// The update must have support queries registered for the
	// materialized view candidate.
	up := w.Updates()[0].Statement.(workload.WriteStatement)
	per := res.Support[up]
	if per == nil {
		t.Fatal("no support map for update")
	}
	mv := enumerator.MaterializedView(w.Queries()[0].Statement.(*workload.Query))
	if !slices.ContainsFunc(res.Pool.Indexes(), func(x *schema.Index) bool { return x.ID() == mv.ID() }) {
		t.Fatal("materialized view not in pool")
	}
	if len(per[mv.ID()]) == 0 {
		t.Error("no support queries for the materialized view")
	}
	// Candidates enumerated for support queries are present: the side
	// query along Guest..Hotel needs an index anchored at GuestID.
	foundGuestAnchored := false
	for _, x := range res.Pool.Indexes() {
		if len(x.Partition) == 1 && x.Partition[0].QualifiedName() == "Guest.GuestID" && x.Path.Len() == 4 {
			foundGuestAnchored = true
		}
	}
	if !foundGuestAnchored {
		t.Error("support-query candidates missing from pool")
	}
}
