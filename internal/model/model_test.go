package model

import (
	"slices"
	"testing"
	"testing/quick"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	hotel := g.AddEntity("Hotel", "HotelID", 100)
	hotel.AddAttributeCard("HotelCity", StringType, 20)
	hotel.AddAttribute("HotelName", StringType)
	room := g.AddEntity("Room", "RoomID", 1000)
	room.AddAttributeCard("RoomRate", FloatType, 100)
	guest := g.AddEntity("Guest", "GuestID", 5000)
	guest.AddAttribute("GuestName", StringType)
	g.MustAddRelationship("Hotel", "Rooms", "Room", "Hotel", OneToMany)
	g.MustAddRelationship("Room", "Guests", "Guest", "Rooms", ManyToMany)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestEntityBasics(t *testing.T) {
	g := testGraph(t)
	h := g.MustEntity("Hotel")
	if h.Key().Name != "HotelID" {
		t.Errorf("key = %q, want HotelID", h.Key().Name)
	}
	if !h.Key().IsKey() {
		t.Error("key attribute not recognized as key")
	}
	if h.Attribute("HotelCity").IsKey() {
		t.Error("non-key attribute recognized as key")
	}
	if got := len(h.Attributes()); got != 3 {
		t.Errorf("len(Attributes) = %d, want 3", got)
	}
	if got := len(h.NonKeyAttributes()); got != 2 {
		t.Errorf("len(NonKeyAttributes) = %d, want 2", got)
	}
	if got := h.Attribute("HotelCity").QualifiedName(); got != "Hotel.HotelCity" {
		t.Errorf("QualifiedName = %q", got)
	}
}

func TestDuplicateEntityPanics(t *testing.T) {
	g := testGraph(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate entity")
		}
	}()
	g.AddEntity("Hotel", "X", 1)
}

func TestDuplicateAttributePanics(t *testing.T) {
	g := testGraph(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate attribute")
		}
	}()
	g.MustEntity("Hotel").AddAttribute("HotelCity", StringType)
}

func TestRelationshipEdges(t *testing.T) {
	g := testGraph(t)
	h, r := g.MustEntity("Hotel"), g.MustEntity("Room")
	fwd := h.Edge("Rooms")
	if fwd == nil {
		t.Fatal("Hotel has no Rooms edge")
	}
	if fwd.To != r || fwd.Card != Many {
		t.Errorf("forward edge = %v card %v", fwd, fwd.Card)
	}
	back := r.Edge("Hotel")
	if back == nil || back.Inverse != fwd || fwd.Inverse != back {
		t.Error("inverse edges not linked")
	}
	if back.Card != One {
		t.Errorf("backward degree = %v, want One", back.Card)
	}
	if got := fwd.AvgDegree(); got != 10 {
		t.Errorf("Hotel->Rooms AvgDegree = %v, want 10", got)
	}
	if got := back.AvgDegree(); got != 1 {
		t.Errorf("Room->Hotel AvgDegree = %v, want 1", got)
	}
}

func TestRelationshipNameCollision(t *testing.T) {
	g := testGraph(t)
	if _, err := g.AddRelationship("Hotel", "HotelCity", "Room", "X", OneToMany); err == nil {
		t.Error("expected error for edge colliding with attribute")
	}
	if _, err := g.AddRelationship("Hotel", "Rooms", "Room", "Y", OneToMany); err == nil {
		t.Error("expected error for duplicate edge name")
	}
	if _, err := g.AddRelationship("Nope", "A", "Room", "B", OneToMany); err == nil {
		t.Error("expected error for missing entity")
	}
}

func TestResolvePathAndAttribute(t *testing.T) {
	g := testGraph(t)
	p, err := g.ResolvePath([]string{"Guest", "Rooms", "Hotel"})
	if err != nil {
		t.Fatalf("ResolvePath: %v", err)
	}
	if a := p.End().Attribute("HotelCity"); a == nil || a.QualifiedName() != "Hotel.HotelCity" {
		t.Errorf("attribute = %v", a)
	}
	if p.String() != "Guest.Rooms.Hotel" {
		t.Errorf("path = %s", p)
	}
	if p.Len() != 3 || p.End().Name != "Hotel" {
		t.Errorf("path len=%d end=%s", p.Len(), p.End().Name)
	}

	for _, bad := range [][]string{nil, {"Nope"}, {"Guest", "Nope"}, {"Guest", "Rooms", "Nope"}} {
		if _, err := g.ResolvePath(bad); err == nil {
			t.Errorf("ResolvePath(%q) succeeded, want error", bad)
		}
	}
}

func TestPathOperations(t *testing.T) {
	g := testGraph(t)
	p, err := g.ResolvePath([]string{"Guest", "Rooms", "Hotel"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(g.MustEntity("Room")) || p.Contains(nil) {
		t.Error("Contains misbehaves")
	}
	if p.IndexOf(g.MustEntity("Hotel")) != 2 || p.IndexOf(g.MustEntity("Guest")) != 0 {
		t.Error("IndexOf misbehaves")
	}
	pre := p.Prefix(1)
	if pre.String() != "Guest.Rooms" || pre.End().Name != "Room" {
		t.Errorf("Prefix = %s", pre)
	}
	suf := p.SuffixFrom(1)
	if suf.String() != "Room.Hotel" {
		t.Errorf("SuffixFrom = %s", suf)
	}
	rev := p.Reverse()
	if rev.String() != "Hotel.Rooms.Guests" {
		t.Errorf("Reverse = %s", rev)
	}
	if rev.End() != p.Start {
		t.Error("Reverse end mismatch")
	}
	ents := p.Entities()
	if len(ents) != 3 || ents[0].Name != "Guest" || ents[2].Name != "Hotel" {
		t.Errorf("Entities = %v", ents)
	}
}

// TestPathFanout: the average degrees along a path — what
// schema.Index.Records multiplies — come from the entity counts.
func TestPathFanout(t *testing.T) {
	g := testGraph(t)
	p, _ := g.ResolvePath([]string{"Hotel", "Rooms", "Guests"})
	// Hotel->Rooms fans out 10x; Room->Guests fans out 5x (5000/1000).
	for i, want := range []float64{10, 5} {
		if got := p.Edges[i].AvgDegree(); got != want {
			t.Errorf("%s AvgDegree = %v, want %v", p.Edges[i], got, want)
		}
	}
}

func TestAttributeDefaults(t *testing.T) {
	g := testGraph(t)
	city := g.MustEntity("Hotel").Attribute("HotelCity")
	if got := city.DistinctValues(); got != 20 {
		t.Errorf("DistinctValues = %d, want 20", got)
	}
	if got := city.Selectivity(); got != 0.05 {
		t.Errorf("Selectivity = %v, want 0.05", got)
	}
	name := g.MustEntity("Guest").Attribute("GuestName")
	if got := name.DistinctValues(); got != 5000 {
		t.Errorf("default DistinctValues = %d, want entity count", got)
	}
	if got := name.StorageSize(); got != 32 {
		t.Errorf("string StorageSize = %d, want 32", got)
	}
	name.Size = 64
	if got := name.StorageSize(); got != 64 {
		t.Errorf("overridden StorageSize = %d", got)
	}
	// Cardinality larger than the entity count is clamped.
	city.Cardinality = 1_000_000
	if got := city.DistinctValues(); got != 100 {
		t.Errorf("clamped DistinctValues = %d, want 100", got)
	}
}

func TestAttributeTypeRoundTrip(t *testing.T) {
	for _, typ := range []AttributeType{IDType, IntegerType, FloatType, StringType, DateType, BooleanType} {
		parsed, err := ParseAttributeType(typ.String())
		if err != nil {
			t.Fatalf("ParseAttributeType(%q): %v", typ, err)
		}
		if parsed != typ {
			t.Errorf("round trip %v -> %v", typ, parsed)
		}
	}
	if _, err := ParseAttributeType("blob"); err == nil {
		t.Error("expected error for unknown type")
	}
	if !StringType.Ordered() || BooleanType.Ordered() {
		t.Error("Ordered misbehaves")
	}
}

func TestRelationshipKindRoundTrip(t *testing.T) {
	for _, k := range []RelationshipKind{OneToOne, OneToMany, ManyToMany} {
		parsed, err := ParseRelationshipKind(k.String())
		if err != nil {
			t.Fatalf("ParseRelationshipKind(%q): %v", k, err)
		}
		if parsed != k {
			t.Errorf("round trip %v -> %v", k, parsed)
		}
	}
	if _, err := ParseRelationshipKind("friend"); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestValidateCatchesBadCount(t *testing.T) {
	g := NewGraph()
	g.AddEntity("X", "XID", 0)
	if err := g.Validate(); err == nil {
		t.Error("expected validation error for zero count")
	}
}

// TestPathPrefixSuffixProperty checks that splitting a path at any point
// and recombining preserves the original, for all split points.
func TestPathPrefixSuffixProperty(t *testing.T) {
	g := testGraph(t)
	p, _ := g.ResolvePath([]string{"Guest", "Rooms", "Hotel"})
	for i := 0; i < p.Len(); i++ {
		pre, suf := p.Prefix(i), p.SuffixFrom(i)
		if pre.End() != suf.Start {
			t.Errorf("split at %d: prefix end %s != suffix start %s", i, pre.End().Name, suf.Start.Name)
		}
		recombined := pre
		for _, ed := range suf.Edges {
			recombined = recombined.Append(ed)
		}
		if recombined.Start != p.Start || !slices.Equal(recombined.Edges, p.Edges) {
			t.Errorf("split at %d does not recombine", i)
		}
	}
}

// TestSelectivityProperty checks 0 < selectivity <= 1 for arbitrary
// cardinalities.
func TestSelectivityProperty(t *testing.T) {
	g := testGraph(t)
	a := g.MustEntity("Guest").Attribute("GuestName")
	f := func(card uint16) bool {
		a.Cardinality = int(card)
		s := a.Selectivity()
		return s > 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
