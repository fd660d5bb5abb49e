package enumerator

import (
	"slices"

	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

// Modifies reports whether executing the write statement requires
// modifying records of the index (paper Algorithm 1's Modifies?
// predicate). Updates modify an index when it stores a written
// attribute; deletes when the deleted entity lies on the index path;
// connects when the index path traverses the relationship's edge;
// inserts when the new entity lies on the path and the insert's
// connections reach every side of the path around the entity (otherwise
// no complete record can come into existence).
func Modifies(u workload.WriteStatement, x *schema.Index) bool {
	switch st := u.(type) {
	case *workload.Update:
		if !x.Path.Contains(st.Entity()) {
			return false
		}
		for _, a := range st.Set {
			if x.Contains(a.Attr) {
				return true
			}
		}
		return false
	case *workload.Delete:
		return x.Path.Contains(st.Entity())
	case *workload.Connect:
		return edgePosition(x.Path, st.Edge) >= 0
	case *workload.Insert:
		k := x.Path.IndexOf(st.Entity)
		if k < 0 {
			return false
		}
		if k > 0 && !insertReaches(st, x.Path.Edges[k-1].Inverse) {
			return false
		}
		if k < len(x.Path.Edges) && !insertReaches(st, x.Path.Edges[k]) {
			return false
		}
		return true
	default:
		return false
	}
}

// insertReaches reports whether the insert creates a connection along
// the given edge leaving the inserted entity.
func insertReaches(st *workload.Insert, ed *model.Edge) bool {
	for _, c := range st.Connections {
		if c.Edge == ed || c.Edge == ed.Inverse && c.Edge.From == ed.From {
			return true
		}
	}
	return false
}

// edgePosition returns i such that path.Edges[i] is the given edge or
// its inverse, or -1.
func edgePosition(p model.Path, ed *model.Edge) int {
	for i, e := range p.Edges {
		if e == ed || e == ed.Inverse {
			return i
		}
	}
	return -1
}

// SupportQueries constructs the queries whose answers supply the
// attribute values needed to build put and delete requests against x
// when executing u (paper §VI-B). The queries cover three needs:
// locating the affected entity instances, gathering needed attributes
// stored on the path before the written entity, and gathering those
// after it. Statements whose parameters already supply everything
// yield no support queries.
func SupportQueries(u workload.WriteStatement, x *schema.Index) []*workload.Query {
	if !Modifies(u, x) {
		return nil
	}
	// Attribute lists are built on the stack; a query copies what it
	// keeps.
	var buf [2][16]*model.Attribute
	switch st := u.(type) {
	case *workload.Update:
		written := buf[1][:0]
		for _, a := range st.Set {
			written = append(written, a.Attr)
		}
		return entitySupportQueries(buf[0][:0], st.Graph, x, st.Entity(), st.Path, st.Where, written, workload.Label(st))
	case *workload.Delete:
		return entitySupportQueries(buf[0][:0], st.Graph, x, st.Entity(), st.Path, st.Where, nil, workload.Label(st))
	case *workload.Connect:
		return connectSupportQueries(neededAttrs(buf[0][:0], x, nil), x, st)
	case *workload.Insert:
		written := append(buf[1][:0], st.Entity.Key())
		for _, a := range st.Set {
			written = append(written, a.Attr)
		}
		return insertSupportQueries(neededAttrs(buf[0][:0], x, written), x, st)
	default:
		return nil
	}
}

// neededAttrs appends to out the attributes of x that must be obtained
// from the record store to rebuild affected records: everything x
// stores, keys first, except attributes the statement itself supplies.
func neededAttrs(out []*model.Attribute, x *schema.Index, supplied []*model.Attribute) []*model.Attribute {
	for _, attrs := range [...][]*model.Attribute{x.Partition, x.Clustering, x.Values} {
		for _, a := range attrs {
			if !slices.Contains(supplied, a) {
				out = append(out, a)
			}
		}
	}
	return out
}

// entitySupportQueries builds support queries for updates and deletes
// anchored at entity e with the given selection predicates, collecting
// the needed attributes in buf.
func entitySupportQueries(buf []*model.Attribute, g *model.Graph, x *schema.Index, e *model.Entity, stPath model.Path, where []workload.Predicate, written []*model.Attribute, label string) []*workload.Query {
	// Written attributes are supplied by the statement, except when
	// they sit in x's primary key: deleting the stale record then
	// requires their old values, which must be fetched. written is
	// filtered in place into the supplied list.
	supplied := written[:0]
	for _, a := range written {
		if !slices.Contains(x.Partition, a) && !slices.Contains(x.Clustering, a) {
			supplied = append(supplied, a)
		}
	}
	given := keyGiven(where, e)
	if given {
		supplied = append(supplied, e.Key())
	}
	needed := neededAttrs(buf, x, supplied)
	k := x.Path.IndexOf(e)

	var out []*workload.Query

	// Locate affected entities (and pick up e's own needed attributes).
	if !given {
		q := &workload.Query{
			Label: label + "/locate",
			Graph: g,
			Path:  stPath,
			Where: where,
		}
		q.Select = append(q.Select, workload.AttrRef{Index: 0, Attr: e.Key()})
		for _, a := range needed {
			if a.Entity == e && a != e.Key() {
				q.Select = append(q.Select, workload.AttrRef{Index: 0, Attr: a})
			}
		}
		out = append(out, q)
	} else if q := ownQuery(g, e, needed); q != nil {
		out = append(out, q)
	}

	// Gather needed attributes on each side of e along x's path.
	if k > 0 {
		if q := sideQueryFrom(g, reversedPrefix(x.Path, k), needed, label); q != nil {
			out = append(out, q)
		}
	}
	if k < len(x.Path.Edges) {
		if q := sideQueryFrom(g, x.Path.SuffixFrom(k), needed, label); q != nil {
			out = append(out, q)
		}
	}
	return out
}

// ownQuery returns the IDQuery fetching e's needed non-key attributes,
// or nil when there are none.
func ownQuery(g *model.Graph, e *model.Entity, needed []*model.Attribute) *workload.Query {
	var buf [16]*model.Attribute
	own := buf[:0]
	for _, a := range needed {
		if a.Entity == e && a != e.Key() {
			own = append(own, a)
		}
	}
	if len(own) == 0 {
		return nil
	}
	return IDQuery(g, e, own)
}

// reversedPrefix returns p.Prefix(k).Reverse(): the path from entity k
// back to p's start.
func reversedPrefix(p model.Path, k int) model.Path {
	rev := model.Path{Start: p.EntityAt(k), Edges: make([]*model.Edge, 0, k)}
	for i := k - 1; i >= 0; i-- {
		rev.Edges = append(rev.Edges, p.Edges[i].Inverse)
	}
	return rev
}

// sideQueryFrom builds a query over the given path (anchored at its
// start) selecting the needed attributes and entity ids of the path's
// non-root entities, keyed by the start's id.
func sideQueryFrom(g *model.Graph, side model.Path, needed []*model.Attribute, label string) *workload.Query {
	var name [128]byte
	var sel [32]workload.AttrRef
	q := &workload.Query{
		Label: string(side.AppendTo(append(append(name[:0], label...), "/side@"...))),
		Graph: g,
		Path:  side,
		Where: []workload.Predicate{{
			Ref:   workload.AttrRef{Index: 0, Attr: side.Start.Key()},
			Op:    workload.Eq,
			Param: SplitParamPrefix + side.Start.Name,
		}},
	}
	// The selection is gathered on the stack and copied at its size.
	selected := sel[:0]
	has := func(a *model.Attribute) bool {
		return slices.ContainsFunc(selected, func(r workload.AttrRef) bool { return r.Attr == a })
	}
	for i := 1; i < side.Len(); i++ {
		ent := side.EntityAt(i)
		for _, a := range needed {
			if a.Entity == ent && !has(a) {
				selected = append(selected, workload.AttrRef{Index: i, Attr: a})
			}
		}
		if !has(ent.Key()) {
			selected = append(selected, workload.AttrRef{Index: i, Attr: ent.Key()})
		}
	}
	if len(selected) == 0 {
		return nil
	}
	q.Select = slices.Clone(selected)
	return q
}

// connectSupportQueries builds the side queries for CONNECT and
// DISCONNECT: both endpoint keys are statement parameters, and each
// side of the traversed edge is gathered starting from its endpoint.
func connectSupportQueries(needed []*model.Attribute, x *schema.Index, st *workload.Connect) []*workload.Query {
	i := edgePosition(x.Path, st.Edge)
	label := workload.Label(st)

	// Orient: which endpoint of x.Path.Edges[i] is the statement's From?
	pathEdge := x.Path.Edges[i]

	var out []*workload.Query
	// Low side: reversed prefix [0..i] anchored at the edge's From.
	// Each endpoint also contributes its own non-key needed attributes.
	if q := ownQuery(st.Graph, pathEdge.From, needed); q != nil {
		out = append(out, q)
	}
	if i > 0 {
		if q := sideQueryFrom(st.Graph, reversedPrefix(x.Path, i), needed, label); q != nil {
			out = append(out, q)
		}
	}
	// High side: suffix [i+1..end] anchored at the edge's To.
	if q := ownQuery(st.Graph, pathEdge.To, needed); q != nil {
		out = append(out, q)
	}
	if i+1 < len(x.Path.Edges) {
		if q := sideQueryFrom(st.Graph, x.Path.SuffixFrom(i+1), needed, label); q != nil {
			out = append(out, q)
		}
	}
	return out
}

// insertSupportQueries builds the side queries for INSERT: the new
// entity's own attributes come from parameters, and each side of x's
// path is gathered starting from the connected entity named by the
// insert's matching connection.
func insertSupportQueries(needed []*model.Attribute, x *schema.Index, st *workload.Insert) []*workload.Query {
	k := x.Path.IndexOf(st.Entity)
	label := workload.Label(st)
	var out []*workload.Query

	if k > 0 {
		// The connection crosses x.Path.Edges[k-1].Inverse; the far
		// entity anchors the remaining low side.
		out = appendInsertSide(st.Graph, out, x.Path, k-1, false, needed, label)
	}
	if k < len(x.Path.Edges) {
		out = appendInsertSide(st.Graph, out, x.Path, k+1, true, needed, label)
	}
	return out
}

// appendInsertSide appends the queries anchored at the far entity at
// path position k: its own needed attributes, then the side beyond it,
// toward the path's end if forward and toward its start otherwise.
func appendInsertSide(g *model.Graph, out []*workload.Query, p model.Path, k int, forward bool, needed []*model.Attribute, label string) []*workload.Query {
	if q := ownQuery(g, p.EntityAt(k), needed); q != nil {
		out = append(out, q)
	}
	var side model.Path
	switch {
	case forward && k < len(p.Edges):
		side = p.SuffixFrom(k)
	case !forward && k > 0:
		side = reversedPrefix(p, k)
	default:
		return out
	}
	if q := sideQueryFrom(g, side, needed, label); q != nil {
		out = append(out, q)
	}
	return out
}

// AffectedRecords estimates how many records of x one execution of u
// rewrites (paper §VI-D: the per-update, per-index maintenance
// multiplicity C'mn is built from this).
func AffectedRecords(u workload.WriteStatement, x *schema.Index) float64 {
	if !Modifies(u, x) {
		return 0
	}
	switch st := u.(type) {
	case *workload.Update:
		return affectedInstances(st.Entity(), st.Where) * x.EntityFanout(st.Entity())
	case *workload.Delete:
		return affectedInstances(st.Entity(), st.Where) * x.EntityFanout(st.Entity())
	case *workload.Connect:
		edgeInstances := float64(st.Edge.From.Count) * st.Edge.AvgDegree()
		if edgeInstances < 1 {
			edgeInstances = 1
		}
		n := x.Records() / edgeInstances
		if n < 1 {
			return 1
		}
		return n
	case *workload.Insert:
		return x.EntityFanout(st.Entity)
	default:
		return 0
	}
}

// affectedInstances estimates how many instances of e match the
// statement predicates.
func affectedInstances(e *model.Entity, where []workload.Predicate) float64 {
	n := float64(e.Count)
	for _, p := range where {
		if p.Op == workload.Eq {
			n *= p.Ref.Attr.Selectivity()
		} else {
			n *= RangeSelectivity
		}
	}
	if n < 1 {
		return 1
	}
	return n
}

// RangeSelectivity is the assumed fraction of rows matching an
// inequality predicate, used wherever no better estimate exists.
const RangeSelectivity = 0.1

func keyGiven(where []workload.Predicate, e *model.Entity) bool {
	for _, p := range where {
		if p.Op == workload.Eq && p.Ref.Attr == e.Key() {
			return true
		}
	}
	return false
}
