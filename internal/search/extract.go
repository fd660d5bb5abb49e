package search

import (
	"fmt"

	"nose/internal/bip"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/workload"
)

// extract reads the solver's variable assignment back into a
// recommendation: the selected paid column families plus every free
// family a chosen plan uses, one plan per query, and the maintenance
// plans for every (update, selected family) pair. Every plan is the
// one the assignment chose: each query's choose row and each needed
// support group's gate take exactly one.
func (b *builder) extract(res *bip.Result, refs *colRefs, rec *Recommendation) error {
	paidSelected := map[string]bool{}
	for id, col := range refs.indexCol {
		if res.X[col] >= 0.5 {
			paidSelected[id] = true
		}
	}

	perQuery := map[*queryBlock]*planner.Plan{}
	perGroup := map[*supportGroup]*planner.Plan{}
	for col, ref := range refs.planCols {
		if res.X[col] < 0.5 {
			continue
		}
		if ref.query != nil {
			perQuery[ref.query] = ref.plan
		} else {
			perGroup[ref.group] = ref.plan
		}
	}

	used := map[string]bool{}
	markUsed := func(pl *planner.Plan) {
		for _, x := range pl.Indexes() {
			used[x.ID()] = true
		}
	}

	for _, qb := range b.queries {
		plan := perQuery[qb]
		if plan == nil {
			return fmt.Errorf("search: no plan chosen for query %q",
				workload.Label(qb.ws.Statement))
		}
		markUsed(plan)
	}
	for _, ub := range b.updates {
		for _, g := range ub.groups {
			needed := false
			for _, x := range g.indexes {
				if paidSelected[x.ID()] {
					needed = true
					break
				}
			}
			if !needed {
				continue
			}
			plan := perGroup[g]
			if plan == nil {
				return fmt.Errorf("search: no support plan chosen for update %q",
					workload.Label(ub.ws.Statement))
			}
			markUsed(plan)
		}
	}

	// The schema: paid selections plus used free families, pool order.
	sch := schema.NewSchema()
	selected := map[string]bool{}
	for _, x := range b.pool {
		id := x.ID()
		if (b.paid(id) && paidSelected[id]) || (!b.paid(id) && used[id]) {
			selected[id] = true
			sch.Add(x)
		}
	}
	rec.Schema = sch

	for _, qb := range b.queries {
		rec.Queries = append(rec.Queries, &QueryRecommendation{
			Statement:    qb.ws,
			Plan:         perQuery[qb],
			Alternatives: executablePlans(qb.space, selected),
		})
	}
	for _, ub := range b.updates {
		for _, x := range ub.order {
			if !selected[x.ID()] {
				continue
			}
			ur := &UpdateRecommendation{Statement: ub.ws, Plan: ub.plans[x.ID()]}
			for _, g := range ub.groups {
				if !groupNeeds(g, x) {
					continue
				}
				plan := perGroup[g]
				if plan == nil {
					return fmt.Errorf("search: no support plan chosen for update %q on %s",
						workload.Label(ub.ws.Statement), x.Name)
				}
				ur.SupportPlans = append(ur.SupportPlans, plan)
			}
			rec.Updates = append(rec.Updates, ur)
		}
	}
	return nil
}

// executablePlans filters a query's plan space to the plans whose
// column families are all installed in the recommended schema, keeping
// the space's cheapest-first order. The chosen plan is among them: the
// linking rows select the paid families it reads and extract installs
// the free ones, so the harness always has a plan to execute.
func executablePlans(space *planner.PlanSpace, installed map[string]bool) []*planner.Plan {
	var out []*planner.Plan
	for _, p := range space.Plans {
		ok := true
		for _, x := range p.Indexes() {
			if !installed[x.ID()] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

func groupNeeds(g *supportGroup, x *schema.Index) bool {
	for _, y := range g.indexes {
		if y == x {
			return true
		}
	}
	return false
}
