package planner_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/workload"
)

// samePlans reports how two plan lists for one query differ: in length,
// in some plan's steps (deeply: parameter names, path positions and
// limits included) or in the bits of its cost or rows.
func samePlans(got, want []*planner.Plan) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d plans, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Steps, want[i].Steps) {
			return fmt.Errorf("plan %d: %s, want %s", i, got[i].Signature(), want[i].Signature())
		}
		if math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) ||
			math.Float64bits(got[i].Rows) != math.Float64bits(want[i].Rows) {
			return fmt.Errorf("plan %d: cost/rows %v/%v, want %v/%v",
				i, got[i].Cost, got[i].Rows, want[i].Cost, want[i].Rows)
		}
	}
	return nil
}

// plansOf is PlanQuery with an error read as an empty plan space, which
// is how the oracle reports one.
func plansOf(p *planner.Planner, q *workload.Query) []*planner.Plan {
	space, err := p.PlanQuery(q)
	if err != nil {
		return nil
	}
	return space.Plans
}

// TestPlanSpacesMatchStringOracle: for every query and every support
// query of each workload, at the default plan-space cap and at a narrow
// one that makes the beams and the final cut bite,
//
//   - a fresh planner per distinct query returns exactly what the
//     string-keyed, memo-free oracle returns — the same plans in the
//     same order, with (Cost, Rows) bit-equal to a from-scratch estimate
//     of the steps; and
//   - one planner shared by all queries returns exactly that again for
//     each, whether they arrive in workload order (and then all over
//     again, as recurring support queries do), in reverse, or from
//     eight goroutines at once: what a planner remembers changes no
//     plan space.
func TestPlanSpacesMatchStringOracle(t *testing.T) {
	workloads := planner.DifferentialWorkloads(t)
	bidding, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, planner.NamedWorkload{Name: "rubis", W: bidding})
	for _, nw := range workloads {
		res, err := enumerator.EnumerateWorkload(nw.W)
		if err != nil {
			t.Fatal(err)
		}
		all := planner.AllQueries(nw.W, res)
		queries := planner.DistinctQueries(all)
		twice := append(slices.Clone(queries), queries...)
		reversed := slices.Clone(queries)
		slices.Reverse(reversed)
		for _, maxPlans := range []int{planner.DefaultMaxPlansPerQuery, 4} {
			cfg := planner.Config{MaxPlansPerQuery: maxPlans}
			newPlanner := func() *planner.Planner { return planner.New(res.Pool, cost.Default(), cfg) }

			oracle := planner.NewOracle(newPlanner())
			want := map[string][]*planner.Plan{}
			for _, q := range queries {
				want[q.String()] = plansOf(newPlanner(), q)
				if err := samePlans(want[q.String()], oracle.PlanQuery(q)); err != nil {
					t.Fatalf("%s cap %d, fresh planner against oracle, %s: %v", nw.Name, maxPlans, workload.Label(q), err)
				}
			}

			for order, qs := range map[string][]*workload.Query{"forward": twice, "reverse": reversed} {
				p := newPlanner()
				for _, q := range qs {
					if err := samePlans(plansOf(p, q), want[q.String()]); err != nil {
						t.Fatalf("%s cap %d, shared planner %s, %s: %v", nw.Name, maxPlans, order, workload.Label(q), err)
					}
				}
			}

			p := newPlanner()
			got := make([][]*planner.Plan, len(queries))
			var next atomic.Int64
			var wg sync.WaitGroup
			for range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
						got[i] = plansOf(p, queries[i])
					}
				}()
			}
			wg.Wait()
			for i, q := range queries {
				if err := samePlans(got[i], want[q.String()]); err != nil {
					t.Fatalf("%s cap %d, shared planner from 8 goroutines, %s: %v", nw.Name, maxPlans, workload.Label(q), err)
				}
			}
		}
		t.Logf("%s: %d queries and support queries, %d distinct", nw.Name, len(all), len(queries))
	}
}
