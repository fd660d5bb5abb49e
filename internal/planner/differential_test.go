package planner_test

import (
	"math"
	"reflect"
	"testing"

	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/workload"
)

// TestPlanSpacesMatchStringOracle: for every query and every support
// query of each workload, PlanQuery returns exactly what the
// string-keyed oracle returns — the same plans in the same order, with
// (Cost, Rows) bit-equal to a from-scratch estimate of the steps.
func TestPlanSpacesMatchStringOracle(t *testing.T) {
	workloads := planner.DifferentialWorkloads(t)
	bidding, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	workloads["rubis"] = bidding
	for name, w := range workloads {
		res, err := enumerator.EnumerateWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		queries := planner.AllQueries(w, res)
		// The default cap keeps everything on small queries; the narrow
		// one makes the beams and the final cut bite.
		for _, maxPlans := range []int{planner.DefaultMaxPlansPerQuery, 4} {
			p := planner.New(res.Pool, cost.Default(), planner.Config{MaxPlansPerQuery: maxPlans})
			for _, q := range queries {
				want := planner.OraclePlanQuery(p, q)
				space, err := p.PlanQuery(q)
				if err != nil {
					if len(want) != 0 {
						t.Fatalf("%s %s: %v, oracle has %d plans", name, workload.Label(q), err, len(want))
					}
					continue
				}
				if len(space.Plans) != len(want) {
					t.Fatalf("%s %s: %d plans, oracle %d", name, workload.Label(q), len(space.Plans), len(want))
				}
				for i, got := range space.Plans {
					if got.Signature() != want[i].Signature() || !reflect.DeepEqual(got.Steps, want[i].Steps) {
						t.Fatalf("%s %s plan %d: %s, oracle %s", name, workload.Label(q), i, got.Signature(), want[i].Signature())
					}
					if math.Float64bits(got.Cost) != math.Float64bits(want[i].Cost) ||
						math.Float64bits(got.Rows) != math.Float64bits(want[i].Rows) {
						t.Fatalf("%s %s plan %d: carried cost/rows %v/%v, from scratch %v/%v",
							name, workload.Label(q), i, got.Cost, got.Rows, want[i].Cost, want[i].Rows)
					}
				}
			}
		}
		t.Logf("%s: %d queries and support queries", name, len(queries))
	}
}
