// Package enumerator generates candidate column families for a workload
// (paper §IV-A): per-query candidates via recursive query decomposition
// with predicate relaxation, combined candidates (Combine), and the
// support queries updates need (paper §VI-B, §VI-C, Algorithm 1).
package enumerator

import (
	"nose/internal/model"
	"nose/internal/workload"
)

// SplitParamPrefix prefixes the synthetic parameter names introduced for
// the entity-id equality predicates of remainder and support queries.
// The executor binds these from intermediate results rather than from
// statement parameters.
const SplitParamPrefix = "__id_"

// SubQueries builds the sub-queries that decomposition derives from a
// query — prefix, remainder, relaxed, order-relaxed and reversed — in
// storage it reuses, so that a walk keys and examines thousands of them
// without allocating one. A query it returns is valid until the same
// method (at the same depth, for Prefix and Remainder) builds the next,
// may share with its input the slices it keeps unchanged, carries no
// label, and must not be kept or modified: what is built from it copies
// what it keeps. The zero value is ready to use; a SubQueries must not
// be used by two goroutines at once.
type SubQueries struct {
	// subs holds a prefix and a remainder query per recursion depth.
	subs                    []*workload.Query
	relaxed, unordered, rev workload.Query
	// joins caches remainder join parameter names by entity.
	joins map[*model.Entity]string
}

// at returns the depth's prefix (i = 0) or remainder (i = 1) query.
func (b *SubQueries) at(depth, i int) *workload.Query {
	for len(b.subs) <= 2*depth+i {
		b.subs = append(b.subs, &workload.Query{})
	}
	return b.subs[2*depth+i]
}

// Prefix builds PrefixQuery(q, s) in depth's storage.
func (b *SubQueries) Prefix(depth int, q *workload.Query, s int) *workload.Query {
	return prefixInto(b.at(depth, 0), q, s)
}

// Remainder builds the remainder query for decomposing q at path
// position s (remainderInto) in depth's storage.
func (b *SubQueries) Remainder(depth int, q *workload.Query, s int) *workload.Query {
	e := q.Path.EntityAt(s)
	join, ok := b.joins[e]
	if !ok {
		if b.joins == nil {
			b.joins = map[*model.Entity]string{}
		}
		join = SplitParamPrefix + e.Name
		b.joins[e] = join
	}
	return remainderInto(b.at(depth, 1), q, s, join)
}

// Relax builds q with the removed predicates relaxed (relaxInto).
func (b *SubQueries) Relax(q *workload.Query, removed []workload.Predicate) *workload.Query {
	return relaxInto(&b.relaxed, q, removed)
}

// RelaxOrder builds RelaxOrder(q) for a q with an ORDER BY clause.
func (b *SubQueries) RelaxOrder(q *workload.Query) *workload.Query {
	return relaxOrderInto(&b.unordered, q)
}

// Reverse builds ReverseQuery(q) for a q whose path has an edge.
func (b *SubQueries) Reverse(q *workload.Query) *workload.Query {
	return reverseInto(&b.rev, q)
}

// PrefixQuery builds the prefix query for decomposing q at path position
// s (paper Fig. 5): the sub-query covering path entities [s..end],
// anchored at entity s, selecting entity s's key plus any of q's
// selected attributes that live at positions >= s, and keeping exactly
// q's predicates at positions >= s.
func PrefixQuery(q *workload.Query, s int) *workload.Query {
	return prefixInto(&workload.Query{}, q, s)
}

// prefixInto builds PrefixQuery(q, s) in dst, reusing dst's slices;
// dst must share no storage with q. Its label is left empty: nothing
// reads the label of a sub-query.
func prefixInto(dst, q *workload.Query, s int) *workload.Query {
	target := q.Path.EntityAt(s)
	*dst = workload.Query{
		Graph:  q.Graph,
		Path:   model.Path{Start: target, Edges: append(dst.Path.Edges[:0], q.Path.Edges[s:]...)},
		Select: append(dst.Select[:0], workload.AttrRef{Index: 0, Attr: target.Key()}),
		Where:  dst.Where[:0],
		Order:  dst.Order[:0],
	}
	for _, sel := range q.Select {
		if sel.Index >= s && sel.Attr != target.Key() {
			dst.Select = append(dst.Select, workload.AttrRef{Index: sel.Index - s, Attr: sel.Attr})
		}
	}
	for _, p := range q.Where {
		if p.Ref.Index >= s {
			dst.Where = append(dst.Where, workload.Predicate{
				Ref:   workload.AttrRef{Index: p.Ref.Index - s, Attr: p.Ref.Attr},
				Op:    p.Op,
				Param: p.Param,
			})
		}
	}
	for _, o := range q.Order {
		if o.Index >= s {
			dst.Order = append(dst.Order, workload.AttrRef{Index: o.Index - s, Attr: o.Attr})
		}
	}
	return dst
}

// remainderInto builds in dst, reusing dst's slices, the remainder
// query for decomposing q at path position s (paper Fig. 5): the
// sub-query covering path entities [0..s], keeping q's predicates at
// positions < s and gaining an equality predicate on entity s's key,
// whose value the application obtains by executing a plan for the
// prefix query. join names that predicate's parameter,
// SplitParamPrefix plus the entity's name. dst must share no storage
// with q.
func remainderInto(dst, q *workload.Query, s int, join string) *workload.Query {
	*dst = workload.Query{
		Graph:  q.Graph,
		Path:   model.Path{Start: q.Path.Start, Edges: append(dst.Path.Edges[:0], q.Path.Edges[:s]...)},
		Select: dst.Select[:0],
		Where:  dst.Where[:0],
		Order:  dst.Order[:0],
		Limit:  q.Limit,
	}
	for _, sel := range q.Select {
		if sel.Index < s {
			dst.Select = append(dst.Select, sel)
		}
	}
	if len(dst.Select) == 0 {
		dst.Select = append(dst.Select, workload.AttrRef{Index: 0, Attr: q.Path.Start.Key()})
	}
	for _, p := range q.Where {
		if p.Ref.Index < s {
			dst.Where = append(dst.Where, p)
		}
	}
	dst.Where = append(dst.Where, workload.Predicate{
		Ref:   workload.AttrRef{Index: s, Attr: q.Path.EntityAt(s).Key()},
		Op:    workload.Eq,
		Param: join,
	})
	for _, o := range q.Order {
		if o.Index < s {
			dst.Order = append(dst.Order, o)
		}
	}
	return dst
}

// IDQuery builds a query fetching the given non-key attributes of one
// entity by its key: the query behind the "ID to attributes" candidate
// column families the enumerator adds when a prefix query selects
// non-key attributes (paper §IV-A2), and behind the enrichment lookups
// plans use to apply relaxed predicates.
func IDQuery(g *model.Graph, e *model.Entity, attrs []*model.Attribute) *workload.Query {
	q := &workload.Query{
		Label: e.Name + "/byid",
		Graph: g,
		Path:  model.NewPath(e),
		Where: []workload.Predicate{{
			Ref:   workload.AttrRef{Index: 0, Attr: e.Key()},
			Op:    workload.Eq,
			Param: SplitParamPrefix + e.Name,
		}},
	}
	for _, a := range attrs {
		q.Select = append(q.Select, workload.AttrRef{Index: 0, Attr: a})
	}
	return q
}
