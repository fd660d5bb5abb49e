package nose_test

import (
	"strings"
	"testing"

	"nose"
)

// TestPublicAPIQuickstart exercises the façade end to end exactly as
// the package documentation advertises.
func TestPublicAPIQuickstart(t *testing.T) {
	g := nose.NewGraph()
	hotel := g.AddEntity("Hotel", "HotelID", 100)
	hotel.AddAttributeCard("HotelCity", nose.StringType, 50)
	room := g.AddEntity("Room", "RoomID", 10_000)
	room.AddAttributeCard("RoomRate", nose.FloatType, 200)
	g.MustAddRelationship("Hotel", "Rooms", "Room", "Hotel", nose.OneToMany)

	w := nose.NewWorkload(g)
	w.Add(nose.MustParse(g, `SELECT Room.RoomID FROM Room
	    WHERE Room.Hotel.HotelCity = ?city AND Room.RoomRate > ?rate`), 1.0)

	rec, err := nose.Advise(w, nose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schema.Len() == 0 {
		t.Fatal("no column families recommended")
	}
	if len(rec.Queries) != 1 || rec.Queries[0].Plan == nil {
		t.Fatal("no plan recommended")
	}
	out := rec.Schema.String()
	if !strings.Contains(out, "Hotel.HotelCity") {
		t.Errorf("schema missing partition key:\n%s", out)
	}
}

func TestPublicAPIParseErrors(t *testing.T) {
	g := nose.NewGraph()
	g.AddEntity("X", "XID", 10)
	if _, err := nose.Parse(g, "SELECT nothing"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := nose.ParseQuery(g, "DELETE FROM X"); err == nil {
		t.Error("expected non-query error")
	}
}

func TestDefaultCostModel(t *testing.T) {
	m := nose.DefaultCostModel()
	if m.Lookup(1, 1, 10) <= 0 {
		t.Error("cost model returned non-positive lookup cost")
	}
}

// Example demonstrates the advisor end to end on a small model. It has
// no fixed output because plan costs include floating point values; it
// is compiled and executed by go test.
func Example() {
	g := nose.NewGraph()
	dept := g.AddEntity("Dept", "DeptID", 50)
	dept.AddAttributeCard("DeptRegion", nose.StringType, 5)
	emp := g.AddEntity("Employee", "EmpID", 5_000)
	emp.AddAttribute("EmpName", nose.StringType)
	g.MustAddRelationship("Dept", "Members", "Employee", "Dept", nose.OneToMany)

	w := nose.NewWorkload(g)
	w.Add(nose.MustParse(g,
		`SELECT Members.EmpName FROM Dept.Members WHERE Dept.DeptRegion = ?r`), 1)

	rec, err := nose.Advise(w, nose.Options{})
	if err != nil {
		panic(err)
	}
	_ = rec.Schema // rec.Schema.String() lists the column families
}

// pricierLookups is a caller-defined cost model: the default one with
// every get priced twice as high, as for a backend whose lookups cost
// more than Cassandra's (HBase's region lookups, say).
type pricierLookups struct{ nose.CostModel }

func (m pricierLookups) Lookup(requests, partitions, rows float64) float64 {
	return 2 * m.CostModel.Lookup(requests, partitions, rows)
}

// TestHBaseCostModelUsableInAdvise: retargeting the advisor (paper §IX)
// means passing a caller-defined cost model through Options.CostModel,
// and the recommendation is priced by it.
func TestHBaseCostModelUsableInAdvise(t *testing.T) {
	g := nose.NewGraph()
	e := g.AddEntity("T", "TID", 100)
	e.AddAttributeCard("TKind", nose.StringType, 5)
	w := nose.NewWorkload(g)
	w.Add(nose.MustParse(g, `SELECT T.TID FROM T WHERE T.TKind = ?k`), 1)
	rec, err := nose.Advise(w, nose.Options{CostModel: pricierLookups{nose.DefaultCostModel()}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schema.Len() == 0 {
		t.Fatal("no schema under a caller-defined cost model")
	}
	base, err := nose.Advise(w, nose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cost <= base.Cost {
		t.Errorf("cost %v under pricier lookups, want more than the default model's %v", rec.Cost, base.Cost)
	}
}
