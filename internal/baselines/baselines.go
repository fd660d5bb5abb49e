// Package baselines builds the two comparison schemas of the paper's
// evaluation (§VII-A): the fully normalized schema and the hand-made
// "expert" schema, and derives executable recommendations (plans and
// update maintenance) for any fixed schema by reusing the planner over
// a frozen candidate pool.
package baselines

import (
	"fmt"

	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/model"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// Normalized builds the paper's normalized baseline: one column family
// per entity set holding all its attributes keyed by the entity id,
// one column family per relationship direction mapping an entity id to
// its related ids, and one secondary-index column family per non-key
// equality-predicate attribute in the workload ("these column families
// use the attributes given in query predicates as the partition keys
// and store the primary key of the corresponding entities").
func Normalized(w *workload.Workload) (*enumerator.Pool, error) {
	pool := enumerator.NewPool()
	g := w.Graph

	for _, e := range g.Entities() {
		// Entity base table.
		if len(e.NonKeyAttributes()) > 0 {
			if _, err := pool.Add(schema.New(model.NewPath(e),
				[]*model.Attribute{e.Key()}, nil, e.NonKeyAttributes())); err != nil {
				return nil, err
			}
		}
		// Relationship indexes, one per direction.
		for _, ed := range e.Edges() {
			path := model.NewPath(e).Append(ed)
			if _, err := pool.Add(schema.New(path,
				[]*model.Attribute{e.Key()},
				[]*model.Attribute{ed.To.Key()}, nil)); err != nil {
				return nil, err
			}
		}
	}

	// Secondary indexes for query predicates on non-key attributes.
	for _, ws := range w.Statements {
		q, ok := ws.Statement.(*workload.Query)
		if !ok {
			continue
		}
		for _, p := range q.Where {
			a := p.Ref.Attr
			if p.Op != workload.Eq || a.IsKey() {
				continue
			}
			if _, err := pool.Add(schema.New(model.NewPath(a.Entity),
				[]*model.Attribute{a},
				[]*model.Attribute{a.Entity.Key()}, nil)); err != nil {
				return nil, err
			}
		}
	}
	return pool, nil
}

// Recommend derives an executable recommendation for a fixed schema:
// every pool column family is selected, each query gets its cheapest
// plan over the pool, and every write statement gets maintenance plans
// (with support queries planned over the same pool). It mirrors what a
// developer does when implementing a workload against a hand-designed
// schema.
func Recommend(w *workload.Workload, pool *enumerator.Pool, m cost.Model, cfg planner.Config) (*search.Recommendation, error) {
	pl := planner.New(pool, m, cfg)
	rec := &search.Recommendation{Schema: schema.NewSchema()}
	for _, x := range pool.Indexes() {
		rec.Schema.Add(x)
	}

	for _, ws := range w.Queries() {
		q := ws.Statement.(*workload.Query)
		space, err := pl.PlanQuery(q)
		if err != nil {
			return nil, fmt.Errorf("baselines: query %q not answerable by the schema: %w", workload.Label(q), err)
		}
		plan := space.Best(nil)
		// Every pool family is installed, so the whole plan space is
		// executable and doubles as the failover ranking.
		rec.Queries = append(rec.Queries, &search.QueryRecommendation{
			Statement: ws, Plan: plan, Alternatives: space.Plans,
		})
		rec.Cost += w.Weight(ws) * plan.Cost
	}

	for _, ws := range w.Updates() {
		u := ws.Statement.(workload.WriteStatement)
		for _, x := range pool.Indexes() {
			if !enumerator.Modifies(u, x) {
				continue
			}
			up := pl.PlanUpdate(u, x)
			ur := &search.UpdateRecommendation{Statement: ws, Plan: up}
			for _, sq := range enumerator.SupportQueries(u, x) {
				space, err := pl.PlanQuery(sq)
				if err != nil {
					return nil, fmt.Errorf("baselines: support query for %q on %s not answerable: %w",
						workload.Label(u), x.Name, err)
				}
				ur.SupportPlans = append(ur.SupportPlans, space.Best(nil))
			}
			rec.Updates = append(rec.Updates, ur)
			rec.Cost += w.Weight(ws) * up.WriteCost
		}
	}
	return rec, nil
}
