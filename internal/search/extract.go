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
	// chosen returns the plan of space the assignment takes, its plans
	// being the columns from first on.
	chosen := func(space *planner.PlanSpace, first int) *planner.Plan {
		for k, pl := range space.Plans {
			if res.X[first+k] >= 0.5 {
				return pl
			}
		}
		return nil
	}
	perQuery := make([]*planner.Plan, len(b.queries))
	for i, qb := range b.queries {
		perQuery[i] = chosen(qb.space, refs.queryCol[i])
	}
	perGroup := make([]*planner.Plan, 0, len(refs.zCol))
	for _, ub := range b.updates {
		for _, g := range ub.groups {
			perGroup = append(perGroup, chosen(g.space, refs.zCol[len(perGroup)]+1))
		}
	}

	paidSelected := func(pos int) bool {
		col := refs.indexCol[pos]
		return col >= 0 && res.X[col] >= 0.5
	}
	used := make([]bool, len(b.pool))
	markUsed := func(pl *planner.Plan) {
		for _, x := range pl.Indexes() {
			if pos, ok := b.at[x.ID()]; ok {
				used[pos] = true
			}
		}
	}

	for i, qb := range b.queries {
		if perQuery[i] == nil {
			return fmt.Errorf("search: no plan chosen for query %q",
				workload.Label(qb.ws.Statement))
		}
		markUsed(perQuery[i])
	}
	gi := 0
	for _, ub := range b.updates {
		for _, g := range ub.groups {
			plan := perGroup[gi]
			gi++
			needed := false
			for _, x := range g.indexes {
				if pos, ok := b.at[x.ID()]; ok && paidSelected(pos) {
					needed = true
					break
				}
			}
			if !needed {
				continue
			}
			if plan == nil {
				return fmt.Errorf("search: no support plan chosen for update %q",
					workload.Label(ub.ws.Statement))
			}
			markUsed(plan)
		}
	}

	// The schema: paid selections plus used free families, pool order.
	sch := schema.NewSchema()
	selected := make([]bool, len(b.pool))
	for pos, x := range b.pool {
		if paid := refs.indexCol[pos] >= 0; (paid && paidSelected(pos)) || (!paid && used[pos]) {
			selected[pos] = true
			sch.Add(x)
		}
	}
	rec.Schema = sch

	for i, qb := range b.queries {
		rec.Queries = append(rec.Queries, &QueryRecommendation{Statement: qb.ws, Plan: perQuery[i]})
	}
	base := 0 // the number of ub's first group
	for _, ub := range b.updates {
		for _, x := range ub.order {
			if pos, ok := b.at[x.ID()]; !ok || !selected[pos] {
				continue
			}
			ur := &UpdateRecommendation{Statement: ub.ws, Plan: ub.plans[x.ID()]}
			for k, g := range ub.groups {
				if !groupNeeds(g, x) {
					continue
				}
				plan := perGroup[base+k]
				if plan == nil {
					return fmt.Errorf("search: no support plan chosen for update %q on %s",
						workload.Label(ub.ws.Statement), x.Name)
				}
				ur.SupportPlans = append(ur.SupportPlans, plan)
			}
			rec.Updates = append(rec.Updates, ur)
		}
		base += len(ub.groups)
	}
	return nil
}

func groupNeeds(g *supportGroup, x *schema.Index) bool {
	for _, y := range g.indexes {
		if y == x {
			return true
		}
	}
	return false
}
