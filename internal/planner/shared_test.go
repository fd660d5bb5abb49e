package planner_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"nose/internal/enumerator"
	"nose/internal/hotel"
	"nose/internal/planner"
	"nose/internal/workload"
)

// The planner shares steps and segments between the statements it
// plans. The tests below hold it to the three things that sharing must
// not do: hand one statement another's parameter names, let one
// statement's LIMIT into another's lookups, or modify a step some plan
// already holds.

// sharedFixture parses the statements into one workload and returns a
// planner over its candidates.
func sharedFixture(t *testing.T, srcs ...string) (*planner.Planner, []*workload.Query) {
	t.Helper()
	g := hotel.Graph()
	w := workload.New(g)
	var queries []*workload.Query
	for _, src := range srcs {
		q := workload.MustParseQuery(g, src)
		w.Add(q, 1)
		queries = append(queries, q)
	}
	p, _ := fixture(t, w)
	return p, queries
}

// planParams collects the statement parameter names a plan space's
// steps bind or filter on, in how many bound, pushed and filtered
// predicates.
func planParams(ps *planner.PlanSpace) (names []string, bound, pushed, filtered int) {
	add := func(pr workload.Predicate) {
		if !strings.HasPrefix(pr.Param, enumerator.SplitParamPrefix) && !slices.Contains(names, pr.Param) {
			names = append(names, pr.Param)
		}
	}
	for _, pl := range ps.Plans {
		for _, st := range pl.Steps {
			switch s := st.(type) {
			case *planner.LookupStep:
				for _, pr := range s.EqPredicates {
					add(pr)
					bound++
				}
				if s.RangePredicate != nil {
					add(*s.RangePredicate)
					pushed++
				}
			case *planner.FilterStep:
				for _, pr := range s.Predicates {
					add(pr)
					filtered++
				}
			}
		}
	}
	slices.Sort(names)
	return names, bound, pushed, filtered
}

// TestSharedPlannerKeepsParameterNames: two statements of one structure
// that name their parameters differently share a signature — every step
// of one has a step of the other with the same signature string — yet
// each one's plans must bind, push and filter on its own names,
// whichever the planner saw first.
func TestSharedPlannerKeepsParameterNames(t *testing.T) {
	const shape = `SELECT Guest.GuestName FROM Guest WHERE Guest.Reservations.Room.Hotel.HotelCity = ?city%[1]s AND Guest.Reservations.Room.RoomRate > ?rate%[1]s`
	srcs := []string{strings.ReplaceAll(shape, "%[1]s", "A"), strings.ReplaceAll(shape, "%[1]s", "B")}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		p, queries := sharedFixture(t, srcs...)
		spaces := make([]*planner.PlanSpace, len(queries))
		for _, i := range order {
			var err error
			if spaces[i], err = p.PlanQuery(queries[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i, suffix := range []string{"A", "B"} {
			names, bound, pushed, filtered := planParams(spaces[i])
			if want := []string{"city" + suffix, "rate" + suffix}; !slices.Equal(names, want) {
				t.Errorf("order %v: statement %s's plans use parameters %v, want %v", order, suffix, names, want)
			}
			if bound == 0 || pushed == 0 || filtered == 0 {
				t.Errorf("order %v: statement %s: %d bound, %d pushed, %d filtered predicates; the test needs all three kinds",
					order, suffix, bound, pushed, filtered)
			}
		}
		if a, b := spaces[0].Plans, spaces[1].Plans; len(a) != len(b) {
			t.Errorf("order %v: %d plans against %d for one structure", order, len(a), len(b))
		} else {
			for i := range a {
				if a[i].Signature() != b[i].Signature() {
					t.Errorf("order %v: plan %d signatures differ: the statements no longer share a structure", order, i)
				}
			}
		}
	}
}

// limits returns the largest LookupStep.Limit and LimitStep.N among a
// plan space's steps.
func limits(ps *planner.PlanSpace) (lookup, step int) {
	for _, pl := range ps.Plans {
		for _, st := range pl.Steps {
			switch s := st.(type) {
			case *planner.LookupStep:
				lookup = max(lookup, s.Limit)
			case *planner.LimitStep:
				step = max(step, s.N)
			}
		}
	}
	return lookup, step
}

// TestSharedPlannerKeepsLimitsApart: a statement with LIMIT whose
// ordering a clustering key serves makes the lookup itself stop at the
// limit. The same statement without LIMIT shares that lookup's segment
// and must not inherit the limit, in either planning order; nor may two
// different limits meet.
func TestSharedPlannerKeepsLimitsApart(t *testing.T) {
	const ordered = `SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c ORDER BY Room.RoomNumber`
	srcs := []string{ordered, ordered + ` LIMIT 5`, ordered + ` LIMIT 9`}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}} {
		p, queries := sharedFixture(t, srcs...)
		spaces := make([]*planner.PlanSpace, len(queries))
		for _, i := range order {
			var err error
			if spaces[i], err = p.PlanQuery(queries[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range []int{0, 5, 9} {
			lookup, step := limits(spaces[i])
			if lookup != want || step != want {
				t.Errorf("order %v: statement with limit %d has a lookup limited to %d and a limit step of %d",
					order, want, lookup, step)
			}
			for _, pl := range spaces[i].Plans {
				for _, st := range pl.Steps {
					if ls, ok := st.(*planner.LookupStep); ok && ls.Limit != 0 && ls.Limit != want {
						t.Errorf("order %v: statement with limit %d holds a lookup limited to %d:\n%s", order, want, ls.Limit, pl)
					}
				}
			}
		}
	}
}

// cloneSteps copies the steps with everything the planner could write
// to: the step structs, their predicate lists and the pushed predicate.
func cloneSteps(steps []planner.Step) []planner.Step {
	out := make([]planner.Step, len(steps))
	for i, st := range steps {
		switch s := st.(type) {
		case *planner.LookupStep:
			c := *s
			c.EqPredicates = slices.Clone(s.EqPredicates)
			if s.RangePredicate != nil {
				pushed := *s.RangePredicate
				c.RangePredicate = &pushed
			}
			out[i] = &c
		case *planner.FilterStep:
			out[i] = &planner.FilterStep{Predicates: slices.Clone(s.Predicates)}
		case *planner.SortStep:
			out[i] = &planner.SortStep{By: slices.Clone(s.By)}
		case *planner.LimitStep:
			c := *s
			out[i] = &c
		}
	}
	return out
}

// TestPlannedStepsAreNeverModified: every plan a planner has returned
// still reads as it did when PlanQuery returned it, after the planner
// has planned everything else — statements sharing its segments with
// other limits and other orderings among them.
func TestPlannedStepsAreNeverModified(t *testing.T) {
	const ordered = `SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c ORDER BY Room.RoomNumber`
	p, queries := sharedFixture(t,
		ordered, ordered+` LIMIT 5`,
		`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c`,
		`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c LIMIT 5`,
		`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c AND Room.RoomRate > ?r ORDER BY Room.RoomNumber LIMIT 5`,
		hotel.ExampleQuery, hotel.PrefixQuery)
	type held struct {
		plan     *planner.Plan
		snapshot []planner.Step
	}
	var all []held
	for _, q := range queries {
		ps, err := p.PlanQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range ps.Plans {
			all = append(all, held{pl, cloneSteps(pl.Steps)})
		}
		for _, h := range all {
			if !reflect.DeepEqual(h.plan.Steps, h.snapshot) {
				t.Fatalf("after planning %s, a plan for %s changed:\n%s", workload.Label(q), workload.Label(h.plan.Query), h.plan)
			}
		}
	}
}
