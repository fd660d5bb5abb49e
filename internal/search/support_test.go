package search_test

import (
	"testing"

	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/model"
	"nose/internal/nosedsl"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// TestSupportGroupPlansEachQueryWhenTheUnionHasNoPlan pins a schema of
// two families keyed alike by a guest's email, one storing the guest's
// city and the other the guest's phone, with no family keyed by the
// guest's id. Renaming a guest by email maintains both, and the two
// support queries that locate the guest share a shape and differ in what
// they select: their union selects the city and the phone, which no
// family stores together and no id-keyed lookup can add, so the advisor
// plans the group as one query each. Each support plan must then be the
// cheapest plan of its own support query over the schema.
func TestSupportGroupPlansEachQueryWhenTheUnionHasNoPlan(t *testing.T) {
	g, w, err := nosedsl.Parse(`
entity Guest GuestID 50000
attr Guest.GuestName string
attr Guest.GuestEmail string
attr Guest.GuestCity string cardinality 50
attr Guest.GuestPhone string

stmt 0.5 ByEmail: SELECT Guest.GuestName FROM Guest WHERE Guest.GuestEmail = ?email
stmt 0.5 Rename: UPDATE Guest SET GuestName = ?name WHERE Guest.GuestEmail = ?email
`)
	if err != nil {
		t.Fatal(err)
	}
	guest := g.Entity("Guest")
	attr := guest.Attribute
	pool := enumerator.NewPool()
	for _, other := range []string{"GuestCity", "GuestPhone"} {
		x := schema.New(model.NewPath(guest), []*model.Attribute{attr("GuestEmail")}, []*model.Attribute{guest.Key()},
			[]*model.Attribute{attr("GuestName"), attr(other)})
		if _, err := pool.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := search.AdvisePinned(w, pool, search.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	oracle := planner.New(pool, cost.Default(), planner.Config{})
	var rename workload.WriteStatement
	for _, ws := range w.Statements {
		if u, ok := ws.Statement.(workload.WriteStatement); ok {
			rename = u
		}
	}
	var union *workload.Query
	updates := 0
	for _, ur := range rec.Updates {
		updates++
		sqs := enumerator.SupportQueries(rename, ur.Plan.Index)
		if len(sqs) != 1 || len(ur.SupportPlans) != 1 {
			t.Fatalf("%s: %d support queries and %d support plans, want one each", ur.Plan.Index.Name, len(sqs), len(ur.SupportPlans))
		}
		sq, got := sqs[0], ur.SupportPlans[0]
		space, err := oracle.PlanQuery(sq)
		if err != nil {
			t.Fatalf("%s: the support query alone has no plan: %v", ur.Plan.Index.Name, err)
		}
		if want := space.Plans[0]; got.Signature() != want.Signature() || got.Cost != want.Cost {
			t.Errorf("%s: support plan %s at %v, the cheapest plan of its query %s at %v",
				ur.Plan.Index.Name, got.Signature(), got.Cost, want.Signature(), want.Cost)
		}
		if len(got.Query.Select) != len(sq.Select) {
			t.Errorf("%s: support plan selects %d attributes, its query %d", ur.Plan.Index.Name, len(got.Query.Select), len(sq.Select))
		}
		if union == nil {
			union = &workload.Query{Graph: sq.Graph, Path: sq.Path, Where: sq.Where, Select: append([]workload.AttrRef(nil), sq.Select...)}
			continue
		}
		for _, r := range sq.Select {
			if !containsRef(union.Select, r) {
				union.Select = append(union.Select, r)
			}
		}
	}
	if updates != 2 {
		t.Fatalf("%d update recommendations, want one per family", updates)
	}
	if _, err := oracle.PlanQuery(union); err == nil {
		t.Error("the union of the support queries has a plan: the group was never split")
	}
}

func containsRef(refs []workload.AttrRef, r workload.AttrRef) bool {
	for _, s := range refs {
		if s.Attr == r.Attr {
			return true
		}
	}
	return false
}
