package enumerator_test

import (
	"strings"
	"testing"

	"nose/internal/enumerator"
	"nose/internal/hotel"
	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

func TestPrefixQueryDecomposition(t *testing.T) {
	// Mirrors paper Fig. 5: decomposition of the Fig. 3 query at each
	// entity along Guest.Reservations.Room.Hotel.
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)

	// Decomposition at Guest (s=0): prefix is the whole query.
	p0 := enumerator.PrefixQuery(q, 0)
	if p0.Path.String() != "Guest.Reservations.Room.Hotel" {
		t.Errorf("prefix@0 path = %s", p0.Path)
	}
	if len(p0.Where) != 2 {
		t.Errorf("prefix@0 preds = %v", p0.Where)
	}
	// The prefix query selects the target's key plus the original
	// SELECT attributes.
	if p0.Select[0].Attr.Name != "GuestID" {
		t.Errorf("prefix@0 select = %v", p0.Select)
	}

	// Decomposition at Room (s=2): prefix selects Room.RoomID with
	// both predicates re-anchored, remainder selects the original
	// attributes keyed by RoomID.
	p2 := enumerator.PrefixQuery(q, 2)
	if p2.Path.String() != "Room.Hotel" {
		t.Errorf("prefix@2 path = %s", p2.Path)
	}
	if len(p2.Where) != 2 || p2.Where[0].Ref.Index != 1 || p2.Where[1].Ref.Index != 0 {
		t.Errorf("prefix@2 preds = %v", p2.Where)
	}
	r2 := enumerator.RemainderQuery(q, 2)
	if r2.Path.String() != "Guest.Reservations.Room" {
		t.Errorf("remainder@2 path = %s", r2.Path)
	}
	// Remainder keeps no original predicates (both were at idx >= 2)
	// and gains the RoomID equality join predicate.
	if len(r2.Where) != 1 || r2.Where[0].Ref.Attr.Name != "RoomID" || r2.Where[0].Op != workload.Eq {
		t.Errorf("remainder@2 preds = %v", r2.Where)
	}
	if !strings.HasPrefix(r2.Where[0].Param, enumerator.SplitParamPrefix) {
		t.Errorf("join param = %q", r2.Where[0].Param)
	}

	// Decomposition at Hotel (s=3): remainder keeps the RoomRate
	// predicate (paper Fig. 5 last row).
	r3 := enumerator.RemainderQuery(q, 3)
	if len(r3.Where) != 2 {
		t.Errorf("remainder@3 preds = %v", r3.Where)
	}
	foundRate := false
	for _, p := range r3.Where {
		if p.Ref.Attr.Name == "RoomRate" {
			foundRate = true
		}
	}
	if !foundRate {
		t.Error("remainder@3 lost the RoomRate predicate")
	}
}

func TestMaterializedViewMatchesPaper(t *testing.T) {
	// The Fig. 3 query's materialized view (paper §IV-A1):
	// [HotelCity][RoomRate, GuestID, <path ids>][GuestName, GuestEmail]
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	mv := enumerator.MaterializedView(q)
	if mv == nil {
		t.Fatal("no materialized view")
	}
	if len(mv.Partition) != 1 || mv.Partition[0].QualifiedName() != "Hotel.HotelCity" {
		t.Errorf("partition = %v", mv.Partition)
	}
	if mv.Clustering[0].QualifiedName() != "Room.RoomRate" {
		t.Errorf("clustering[0] = %s", mv.Clustering[0].QualifiedName())
	}
	if mv.Clustering[1].QualifiedName() != "Guest.GuestID" {
		t.Errorf("clustering[1] = %s", mv.Clustering[1].QualifiedName())
	}
	// Hidden path ids: ResID, RoomID, HotelID complete the clustering.
	if len(mv.Clustering) != 5 {
		t.Errorf("clustering = %v", mv.Clustering)
	}
	var values []string
	for _, v := range mv.Values {
		values = append(values, v.Name)
	}
	if len(values) != 2 || values[0] != "GuestEmail" || values[1] != "GuestName" {
		t.Errorf("values = %v", values)
	}
	if err := mv.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMaterializedViewRequiresEquality(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, `SELECT Room.RoomNumber FROM Room WHERE Room.RoomRate > ?`)
	if enumerator.MaterializedView(q) != nil {
		t.Error("range-only query should have no materialized view")
	}
	pool := enumerator.NewPool()
	if err := enumerator.EnumerateQuery(pool, q); err == nil {
		t.Error("EnumerateQuery should reject a query with no equality predicate")
	}
}

func TestSplitViews(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	ko := enumerator.KeyOnlyView(enumerator.MaterializedView(q))
	if ko == nil || len(ko.Values) != 0 {
		t.Fatalf("key-only view = %v", ko)
	}
	ivs := enumerator.IDViews(q)
	if len(ivs) != 1 {
		t.Fatalf("id views = %v", ivs)
	}
	iv := ivs[0]
	if iv.Partition[0].QualifiedName() != "Guest.GuestID" || len(iv.Clustering) != 0 || len(iv.Values) != 2 {
		t.Errorf("id view = %s", iv)
	}
}

func TestOrderByInClustering(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g,
		`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c ORDER BY Room.RoomNumber`)
	mv := enumerator.MaterializedView(q)
	if mv.Clustering[0].Name != "RoomNumber" {
		t.Errorf("order attribute should lead clustering, got %v", mv.Clustering)
	}
}

func TestRelaxQuery(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.PrefixQuery)
	relaxable := enumerator.RelaxablePredicates(q)
	// Only the RoomRate predicate is on the target entity (Room).
	if len(relaxable) != 1 || relaxable[0].Ref.Attr.Name != "RoomRate" {
		t.Fatalf("relaxable = %v", relaxable)
	}
	relaxed := enumerator.RelaxQuery(q, relaxable)
	if len(relaxed.Where) != 1 || relaxed.Where[0].Ref.Attr.Name != "HotelCity" {
		t.Errorf("relaxed preds = %v", relaxed.Where)
	}
	// The removed attribute joins the SELECT list.
	found := false
	for _, s := range relaxed.Select {
		if s.Attr.Name == "RoomRate" {
			found = true
		}
	}
	if !found {
		t.Error("relaxed query does not select RoomRate")
	}
}

func TestRelaxOrder(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g,
		`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c ORDER BY Room.RoomRate`)
	un := enumerator.RelaxOrder(q)
	if len(un.Order) != 0 {
		t.Error("order not dropped")
	}
	found := false
	for _, s := range un.Select {
		if s.Attr.Name == "RoomRate" {
			found = true
		}
	}
	if !found {
		t.Error("order attribute not selected")
	}
	// A query without ORDER BY passes through unchanged.
	plain := workload.MustParseQuery(g, hotel.PrefixQuery)
	if enumerator.RelaxOrder(plain) != plain {
		t.Error("RelaxOrder should be identity without ORDER BY")
	}
}

// TestFigureSixCandidates checks that enumeration of the Fig. 6 prefix
// query produces all five column families the paper shows.
func TestFigureSixCandidates(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.PrefixQuery)
	pool := enumerator.NewPool()
	if err := enumerator.EnumerateQuery(pool, q); err != nil {
		t.Fatal(err)
	}

	wants := map[string]string{
		"CF1": "[Hotel.HotelCity][Room.RoomRate, Room.RoomID, Hotel.HotelID][]",
		"CF2": "[Hotel.HotelCity][Room.RoomID, Hotel.HotelID][]",
		"CF3": "[Hotel.HotelCity][Hotel.HotelID][]",
		"CF4": "[Hotel.HotelID][Room.RoomID][]",
		"CF5": "[Room.RoomID][][Room.RoomRate]",
	}
	have := map[string]bool{}
	for _, x := range pool.Indexes() {
		have[x.String()] = true
	}
	for name, want := range wants {
		if !have[want] {
			t.Errorf("missing %s = %s\npool:\n%s", name, want, poolDump(pool))
		}
	}
}

func poolDump(p *enumerator.Pool) string {
	var b strings.Builder
	for _, x := range p.Indexes() {
		b.WriteString(x.String())
		b.WriteString("  path=")
		b.WriteString(x.Path.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestCombine(t *testing.T) {
	g := hotel.Graph()
	guest := g.MustEntity("Guest")
	pool := enumerator.NewPool()
	mk := func(attr string) *schema.Index {
		x := schema.New(model.NewPath(guest),
			[]*model.Attribute{guest.Key()}, nil,
			[]*model.Attribute{guest.Attribute(attr)})
		got, err := pool.Add(x)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	mk("GuestName")
	mk("GuestEmail")
	before := pool.Len()
	enumerator.Combine(pool)
	if pool.Len() != before+1 {
		t.Fatalf("Combine added %d candidates, want 1", pool.Len()-before)
	}
	merged := pool.Indexes()[pool.Len()-1]
	if len(merged.Values) != 2 {
		t.Errorf("merged = %s", merged)
	}
}

func TestCombineRequiresEmptyClustering(t *testing.T) {
	g := hotel.Graph()
	guest := g.MustEntity("Guest")
	pool := enumerator.NewPool()
	x1 := schema.New(model.NewPath(guest),
		[]*model.Attribute{guest.Key()},
		[]*model.Attribute{guest.Attribute("GuestName")},
		nil)
	x2 := schema.New(model.NewPath(guest),
		[]*model.Attribute{guest.Key()},
		[]*model.Attribute{guest.Attribute("GuestEmail")},
		nil)
	pool.Add(x1)
	pool.Add(x2)
	before := pool.Len()
	enumerator.Combine(pool)
	if pool.Len() != before {
		t.Error("Combine merged candidates with clustering keys")
	}
}

func TestEnumerateQueryPoolIsDeduplicated(t *testing.T) {
	g := hotel.Graph()
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	pool := enumerator.NewPool()
	if err := enumerator.EnumerateQuery(pool, q); err != nil {
		t.Fatal(err)
	}
	n := pool.Len()
	// Enumerating the same query again adds nothing.
	if err := enumerator.EnumerateQuery(pool, q); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != n {
		t.Errorf("pool grew from %d to %d on re-enumeration", n, pool.Len())
	}
	ids := map[string]bool{}
	for _, x := range pool.Indexes() {
		if ids[x.ID()] {
			t.Errorf("duplicate candidate %s", x)
		}
		ids[x.ID()] = true
		if err := x.Validate(); err != nil {
			t.Errorf("invalid candidate %s: %v", x, err)
		}
	}
}
