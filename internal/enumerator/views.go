package enumerator

import (
	"fmt"

	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

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

// RelaxQuery removes the given predicates from q and adds their
// attributes to the SELECT list (paper §IV-A2): plans answering the
// relaxed query retrieve a superset of q's result and filter
// client-side. Removed attributes become selected so the filter has
// them available.
func RelaxQuery(q *workload.Query, removed []workload.Predicate) *workload.Query {
	isRemoved := func(p workload.Predicate) bool {
		for _, r := range removed {
			if r.Ref == p.Ref && r.Op == p.Op && r.Param == p.Param {
				return true
			}
		}
		return false
	}
	out := &workload.Query{
		Label: fmt.Sprintf("%s/relaxed", workload.Label(q)),
		Graph: q.Graph,
		Path:  q.Path,
		Order: q.Order,
		Limit: q.Limit,
	}
	out.Select = append(out.Select, q.Select...)
	selected := map[workload.AttrRef]bool{}
	for _, s := range q.Select {
		selected[s] = true
	}
	for _, p := range q.Where {
		if isRemoved(p) {
			if !selected[p.Ref] {
				selected[p.Ref] = true
				out.Select = append(out.Select, p.Ref)
			}
			continue
		}
		out.Where = append(out.Where, p)
	}
	return out
}

// RelaxOrder drops q's ORDER BY clause and selects its attributes so a
// plan can sort client-side (paper §IV-A2's ordering relaxation).
func RelaxOrder(q *workload.Query) *workload.Query {
	if len(q.Order) == 0 {
		return q
	}
	out := &workload.Query{
		Label: fmt.Sprintf("%s/unordered", workload.Label(q)),
		Graph: q.Graph,
		Path:  q.Path,
		Where: q.Where,
		Limit: q.Limit,
	}
	out.Select = append(out.Select, q.Select...)
	selected := map[workload.AttrRef]bool{}
	for _, s := range q.Select {
		selected[s] = true
	}
	for _, o := range q.Order {
		if !selected[o] {
			selected[o] = true
			out.Select = append(out.Select, o)
		}
	}
	return out
}

// RelaxablePredicates returns the predicates eligible for relaxation:
// those testing an attribute of the query's target entity (path
// position 0), per paper §IV-A2. The target's key-equality predicates
// are excluded — removing them never helps since the key is already in
// the clustering key.
func RelaxablePredicates(q *workload.Query) []workload.Predicate {
	var out []workload.Predicate
	for _, p := range q.Where {
		if p.Ref.Index != 0 {
			continue
		}
		if p.Op == workload.Eq && p.Ref.Attr.IsKey() {
			continue
		}
		out = append(out, p)
	}
	return out
}
