package enumerator

import (
	"slices"

	"nose/internal/model"
	"nose/internal/workload"
)

// addViewFamily adds to the view collector the materialized view of pq
// plus its split variants (paper §IV-A1 and §IV-A2), interning each
// structure before building it:
//
//	materialized view  [equality predicate attributes]
//	                   [ORDER BY attributes, then range-predicate
//	                    attributes, then the ids of every entity along
//	                    the path, target first, to make records unique]
//	                   [the selected attributes not already in the key]
//	key-only view      the same without its values, answering which
//	                   entities match and leaving attribute retrieval to
//	                   an id-keyed lookup; only when there are values
//	id views           per entity with selected non-key attributes, in
//	                   order of first selection: [entity id][][those
//	                   attributes]
//
// A query without an equality predicate has none: no valid get request
// could be constructed.
func (r *run) addViewFamily(pq *workload.Query) {
	if !pq.HasEquality() {
		return
	}
	part, clust, vals := r.part[:0], r.clust[:0], r.vals[:0]
	inKey := func(a *model.Attribute) bool {
		return slices.Contains(part, a) || slices.Contains(clust, a) || slices.Contains(vals, a)
	}
	for _, p := range pq.Where {
		if p.Op == workload.Eq && !inKey(p.Ref.Attr) {
			part = append(part, p.Ref.Attr)
		}
	}
	addClust := func(a *model.Attribute) {
		if !inKey(a) {
			clust = append(clust, a)
		}
	}
	for _, o := range pq.Order {
		addClust(o.Attr)
	}
	for _, p := range pq.Where {
		if p.Op.IsRange() {
			addClust(p.Ref.Attr)
		}
	}
	addClust(pq.Path.Start.Key())
	for _, ed := range pq.Path.Edges {
		addClust(ed.To.Key())
	}
	for _, s := range pq.Select {
		if !inKey(s.Attr) {
			vals = append(vals, s.Attr)
		}
	}
	r.part, r.clust, r.vals = part, clust, vals
	r.view.add(r.intern(pq.Path, part, clust, vals))
	if len(vals) > 0 {
		r.view.add(r.intern(pq.Path, part, clust, nil))
	}

	for i, s := range pq.Select {
		e := s.Attr.Entity
		if s.Attr == e.Key() || slices.ContainsFunc(pq.Select[:i], func(ref workload.AttrRef) bool {
			return ref.Attr.Entity == e && ref.Attr != e.Key()
		}) {
			continue
		}
		r.part = append(r.part[:0], e.Key())
		r.vals = r.vals[:0]
		for _, ref := range pq.Select[i:] {
			if ref.Attr.Entity == e && ref.Attr != e.Key() {
				r.vals = append(r.vals, ref.Attr)
			}
		}
		r.view.add(r.intern(model.NewPath(e), r.part, nil, r.vals))
	}
}

// relaxInto builds in dst q with the given predicates removed and
// their attributes added to the SELECT list (paper §IV-A2): plans
// answering the relaxed query retrieve a superset of q's result and
// filter client-side, so removed attributes become selected for the
// filter to have them. It reuses dst's slices except the path and the
// ordering, which it shares with q; dst must share no other storage
// with q.
func relaxInto(dst, q *workload.Query, removed []workload.Predicate) *workload.Query {
	*dst = workload.Query{
		Graph:  q.Graph,
		Path:   q.Path,
		Select: append(dst.Select[:0], q.Select...),
		Where:  dst.Where[:0],
		Order:  q.Order,
		Limit:  q.Limit,
	}
	for _, p := range q.Where {
		if slices.Contains(removed, p) {
			if !slices.Contains(dst.Select, p.Ref) {
				dst.Select = append(dst.Select, p.Ref)
			}
			continue
		}
		dst.Where = append(dst.Where, p)
	}
	return dst
}

// RelaxOrder drops q's ORDER BY clause and selects its attributes so a
// plan can sort client-side (paper §IV-A2's ordering relaxation).
func RelaxOrder(q *workload.Query) *workload.Query {
	if len(q.Order) == 0 {
		return q
	}
	return relaxOrderInto(&workload.Query{}, q)
}

// relaxOrderInto builds RelaxOrder(q) for an ordered q in dst, reusing
// dst's slices except the path and the predicates, which it shares
// with q; dst must share no other storage with q.
func relaxOrderInto(dst, q *workload.Query) *workload.Query {
	*dst = workload.Query{
		Graph:  q.Graph,
		Path:   q.Path,
		Select: append(dst.Select[:0], q.Select...),
		Where:  q.Where,
		Limit:  q.Limit,
	}
	for _, o := range q.Order {
		if !slices.Contains(dst.Select, o) {
			dst.Select = append(dst.Select, o)
		}
	}
	return dst
}

// RelaxablePredicates returns the predicates eligible for relaxation:
// those testing an attribute of the query's target entity (path
// position 0), per paper §IV-A2. The target's key-equality predicates
// are excluded — removing them never helps since the key is already in
// the clustering key.
func RelaxablePredicates(q *workload.Query) []workload.Predicate {
	return appendRelaxable(nil, q)
}

func appendRelaxable(out []workload.Predicate, q *workload.Query) []workload.Predicate {
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
