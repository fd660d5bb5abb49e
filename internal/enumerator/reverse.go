package enumerator

import (
	"nose/internal/model"
	"nose/internal/workload"
)

// ReverseQuery re-anchors a query at the far end of its path, mapping
// every attribute reference to the reversed position. The result set is
// identical; only the traversal orientation changes. Enumerating and
// planning both orientations lets chains start from whichever end
// carries an equality predicate — a query like
//
//	SELECT Item.ItemName FROM User.Bids.Item WHERE User.UserID = ?
//
// anchors at User, so its lookup chains must traverse User→Bid→Item,
// which in reversed orientation is the paper's prefix/remainder
// decomposition.
func ReverseQuery(q *workload.Query) *workload.Query {
	if len(q.Path.Edges) == 0 {
		return q
	}
	out := reverseInto(&workload.Query{}, q)
	out.Label = q.Label + "/rev"
	return out
}

// reverseInto builds ReverseQuery(q), without its label, in dst,
// reusing dst's slices; dst must share no storage with q.
func reverseInto(dst, q *workload.Query) *workload.Query {
	n := q.Path.Len() - 1
	flip := func(r workload.AttrRef) workload.AttrRef {
		return workload.AttrRef{Index: n - r.Index, Attr: r.Attr}
	}
	*dst = workload.Query{
		Graph:  q.Graph,
		Path:   model.Path{Start: q.Path.End(), Edges: dst.Path.Edges[:0]},
		Select: dst.Select[:0],
		Where:  dst.Where[:0],
		Order:  dst.Order[:0],
		Limit:  q.Limit,
	}
	for i := len(q.Path.Edges) - 1; i >= 0; i-- {
		dst.Path.Edges = append(dst.Path.Edges, q.Path.Edges[i].Inverse)
	}
	for _, s := range q.Select {
		dst.Select = append(dst.Select, flip(s))
	}
	for _, p := range q.Where {
		dst.Where = append(dst.Where, workload.Predicate{Ref: flip(p.Ref), Op: p.Op, Param: p.Param})
	}
	for _, o := range q.Order {
		dst.Order = append(dst.Order, flip(o))
	}
	return dst
}
