package search

import (
	"fmt"

	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/workload"
)

// extract reads a point of the program, solved or evaluated, back into
// a recommendation: the selected paid column families plus every free
// family a chosen plan uses, one plan per query, and the maintenance
// plans for every (update, selected family) pair. Every plan is the
// one the point chose: each query's choose row and each needed support
// group's gate take exactly one.
func (b *builder) extract(x []float64, refs *colRefs, rec *Recommendation) error {
	// chosen returns the plan of space the assignment takes, its plans
	// being the columns from first on.
	chosen := func(space *planner.PlanSpace, first int) *planner.Plan {
		for k, pl := range space.Plans {
			if x[first+k] >= 0.5 {
				return pl
			}
		}
		return nil
	}
	// present marks the selected paid families and then every free
	// family a chosen plan reads: the schema, by pool position.
	present := make([]bool, len(b.pool))
	for pos, col := range refs.indexCol {
		present[pos] = col >= 0 && x[col] >= 0.5
	}
	markUsed := func(pl *planner.Plan) {
		for _, ix := range pl.Indexes() {
			if pos, ok := b.at[ix.ID()]; ok && refs.indexCol[pos] < 0 {
				present[pos] = true
			}
		}
	}

	perQuery := make([]*planner.Plan, len(b.queries))
	for i, qb := range b.queries {
		if perQuery[i] = chosen(qb.space, refs.queryCol[i]); perQuery[i] == nil {
			return fmt.Errorf("search: no plan chosen for query %q",
				workload.Label(qb.ws.Statement))
		}
		markUsed(perQuery[i])
	}
	perGroup := make([]*planner.Plan, 0, len(refs.zCol))
	for _, ub := range b.updates {
		for _, g := range ub.groups {
			plan := chosen(g.space, refs.zCol[len(perGroup)]+1)
			perGroup = append(perGroup, plan)
			if !b.forces(g, refs, present) {
				continue
			}
			if plan == nil {
				return fmt.Errorf("search: no support plan chosen for update %q",
					workload.Label(ub.ws.Statement))
			}
			markUsed(plan)
		}
	}

	sch := schema.NewSchema()
	for pos, ix := range b.pool {
		if present[pos] {
			sch.Add(ix)
		}
	}
	rec.Schema = sch

	for i, qb := range b.queries {
		rec.Queries = append(rec.Queries, &QueryRecommendation{Statement: qb.ws, Plan: perQuery[i]})
	}
	base := 0 // the number of ub's first group
	for _, ub := range b.updates {
		for _, ix := range ub.order {
			if pos, ok := b.at[ix.ID()]; !ok || !present[pos] {
				continue
			}
			ur := &UpdateRecommendation{Statement: ub.ws, Plan: ub.plans[ix.ID()]}
			for k, g := range ub.groups {
				if !groupNeeds(g, ix) {
					continue
				}
				plan := perGroup[base+k]
				if plan == nil {
					return fmt.Errorf("search: no support plan chosen for update %q on %s",
						workload.Label(ub.ws.Statement), ix.Name)
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
