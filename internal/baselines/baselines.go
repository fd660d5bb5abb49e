// Package baselines builds the pools of the two comparison schemas of
// the paper's evaluation (§VII-A): the fully normalized schema and the
// hand-made "expert" schema. search.AdvisePinned plans a pool as the
// schema every family of which is installed and maintained, and prices
// it by evaluating the advisor's own program at that schema: nothing is
// solved, so a baseline's Cost is the objective of the one point there
// is.
package baselines

import (
	"nose/internal/enumerator"
	"nose/internal/model"
	"nose/internal/schema"
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
