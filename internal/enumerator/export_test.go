package enumerator

import (
	"context"

	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

// EnumerateQuery adds to the pool every candidate column family the
// paper's Enumerate(q) generates for one query: for each decomposition
// point along the query path, the prefix query's materialized view, its
// split (key-only plus id-to-attributes) variants, and the relaxed
// variants; then recursively the candidates of the remainder query
// (paper §IV-A2 and Fig. 5). Production enumerates whole workloads; the
// per-query tests (Fig. 6) need the one-query view.
func EnumerateQuery(pool *Pool, q *workload.Query) error {
	list, err := newRun(Features{}).enumerate(q)
	if err != nil {
		return err
	}
	for _, c := range list {
		pool.s.Add(c.x)
	}
	return nil
}

// InternTable enumerates w as EnumerateWorkload does and returns the
// run's intern table: every key with the candidate interned under it.
func InternTable(w *workload.Workload) (map[string]*schema.Index, error) {
	r := newRun(Features{})
	if _, err := r.enumerateWorkload(context.Background(), w, nil); err != nil {
		return nil, err
	}
	table := make(map[string]*schema.Index, len(r.byID))
	for key, c := range r.byID {
		table[key] = c.x
	}
	return table, nil
}

// RemainderQuery builds the remainder query for decomposing q at path
// position s in storage of its own (production reuses storage,
// SubQueries.Remainder).
func RemainderQuery(q *workload.Query, s int) *workload.Query {
	return remainderInto(&workload.Query{}, q, s, SplitParamPrefix+q.Path.EntityAt(s).Name)
}

// RelaxQuery builds q with the removed predicates relaxed in storage of
// its own (production reuses storage, SubQueries.Relax).
func RelaxQuery(q *workload.Query, removed []workload.Predicate) *workload.Query {
	return relaxInto(&workload.Query{}, q, removed)
}

// The three functions below build a view family one schema.New per
// structure, with no interning and no scratch. Production looks each
// structure up before building it (run.addViewFamily); the Fig. 6
// tests and the reference enumeration use these as its oracle.

// MaterializedView builds the column family that answers q with a
// single get request (paper §IV-A1):
//
//	partition key  = the attributes of q's equality predicates
//	clustering key = ORDER BY attributes, then range-predicate
//	                 attributes, then the ids of every entity along the
//	                 path (target first) to make records unique
//	values         = the selected attributes not already in the key
//
// It returns nil when q has no equality predicate, since no valid get
// request could then be constructed.
func MaterializedView(q *workload.Query) *schema.Index {
	eq := q.EqualityPredicates()
	if len(eq) == 0 {
		return nil
	}
	var partition []*model.Attribute
	inKey := map[*model.Attribute]bool{}
	for _, p := range eq {
		if !inKey[p.Ref.Attr] {
			inKey[p.Ref.Attr] = true
			partition = append(partition, p.Ref.Attr)
		}
	}

	var clustering []*model.Attribute
	addClust := func(a *model.Attribute) {
		if !inKey[a] {
			inKey[a] = true
			clustering = append(clustering, a)
		}
	}
	for _, o := range q.Order {
		addClust(o.Attr)
	}
	for _, p := range q.RangePredicates() {
		addClust(p.Ref.Attr)
	}
	for _, e := range q.Path.Entities() {
		addClust(e.Key())
	}

	var values []*model.Attribute
	for _, s := range q.Select {
		if !inKey[s.Attr] {
			inKey[s.Attr] = true
			values = append(values, s.Attr)
		}
	}
	return schema.New(q.Path, partition, clustering, values)
}

// KeyOnlyView strips a query's materialized view of its value
// attributes: the result answers the query's key portion (which
// entities match) and leaves attribute retrieval to a separate id-keyed
// lookup (paper §IV-A2's "one that returns only the key attributes").
// It returns nil when the view has no values to strip.
func KeyOnlyView(mv *schema.Index) *schema.Index {
	if mv == nil || len(mv.Values) == 0 {
		return nil
	}
	return schema.New(mv.Path, mv.Partition, mv.Clustering, nil)
}

// IDViews builds, for each entity of q's path with selected non-key
// attributes, the column family mapping the entity's key to those
// attributes (paper §IV-A2's "a second that returns the attributes from
// the SELECT clause, given a key").
func IDViews(q *workload.Query) []*schema.Index {
	perEntity := map[*model.Entity][]*model.Attribute{}
	var order []*model.Entity
	for _, s := range q.Select {
		e := s.Attr.Entity
		if s.Attr == e.Key() {
			continue
		}
		if perEntity[e] == nil {
			order = append(order, e)
		}
		perEntity[e] = append(perEntity[e], s.Attr)
	}
	var out []*schema.Index
	for _, e := range order {
		out = append(out, schema.New(
			model.NewPath(e),
			[]*model.Attribute{e.Key()},
			nil,
			perEntity[e],
		))
	}
	return out
}
