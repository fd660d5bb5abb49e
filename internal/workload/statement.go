// Package workload defines the statement language applications use to
// describe their anticipated workload to the advisor (paper §III-B and
// §VI-A): parameterized queries and updates expressed directly over the
// conceptual model, plus weighted workloads and named workload mixes.
package workload

import (
	"fmt"
	"strings"

	"nose/internal/model"
)

// Statement is any parameterized workload statement: a Query or one of
// the update statements (Insert, Update, Delete, Connect, Disconnect).
type Statement interface {
	// String renders the statement in the workload language.
	String() string
	// statement restricts implementations to this package's types.
	statement()
}

// Op is a comparison operator usable in WHERE predicates.
type Op int

const (
	// Eq is equality (=).
	Eq Op = iota
	// Gt is strictly-greater (>).
	Gt
	// Ge is greater-or-equal (>=).
	Ge
	// Lt is strictly-less (<).
	Lt
	// Le is less-or-equal (<=).
	Le
)

// String returns the operator's source spelling.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Lt:
		return "<"
	case Le:
		return "<="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// IsRange reports whether the operator is an inequality, requiring
// ordered storage or client-side filtering.
func (o Op) IsRange() bool { return o != Eq }

// AttrRef is an attribute reference resolved against a query path: the
// attribute plus the position (entity index) on the path where it lives.
type AttrRef struct {
	// Index is the entity position on the statement's path; 0 is the
	// target entity.
	Index int
	// Attr is the referenced attribute; its entity equals the path
	// entity at Index.
	Attr *model.Attribute
}

// String renders the reference as Entity.Attribute.
func (r AttrRef) String() string { return r.Attr.QualifiedName() }

// Predicate is one WHERE condition: a comparison between a path
// attribute and a statement parameter.
type Predicate struct {
	// Ref locates the attribute on the statement path.
	Ref AttrRef
	// Op is the comparison operator.
	Op Op
	// Param is the parameter name bound at execution time (without the
	// leading '?').
	Param string
}

// String renders the predicate in source form.
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s ?%s", p.Ref, p.Op, p.Param)
}

// Query is a parameterized read statement over the conceptual model. It
// names a target entity set, traverses a single path through the entity
// graph, filters with predicates along the path, and returns attribute
// values of path entities.
type Query struct {
	// Label optionally names the query for reporting.
	Label string
	// Graph is the conceptual model the query is resolved against.
	Graph *model.Graph
	// Path is the query path; Path.Start is the target entity whose
	// instances the query conceptually returns.
	Path model.Path
	// Select lists the returned attributes.
	Select []AttrRef
	// Where lists the predicates, all of which lie on Path.
	Where []Predicate
	// Order lists the desired result ordering attributes, in priority
	// order.
	Order []AttrRef
	// Limit bounds the number of results; 0 means unlimited.
	Limit int
}

func (*Query) statement() {}

// String renders the query in the workload language.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" FROM ")
	b.WriteString(q.Path.String())
	writeWhere(&b, q.Where)
	if len(q.Order) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.Order {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

func writeWhere(b *strings.Builder, preds []Predicate) {
	for i, p := range preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(p.String())
	}
}

// EqualityPredicates returns the equality predicates of the query.
func (q *Query) EqualityPredicates() []Predicate {
	return filterPreds(q.Where, false)
}

// RangePredicates returns the inequality predicates of the query.
func (q *Query) RangePredicates() []Predicate {
	return filterPreds(q.Where, true)
}

func filterPreds(preds []Predicate, wantRange bool) []Predicate {
	var out []Predicate
	for _, p := range preds {
		if p.Op.IsRange() == wantRange {
			out = append(out, p)
		}
	}
	return out
}

// Validate checks internal consistency: every reference lies on the
// path, every attribute belongs to the entity at its index, range
// predicates use ordered attributes, and at least one attribute is
// selected.
func (q *Query) Validate() error {
	if len(q.Select) == 0 {
		return fmt.Errorf("workload: query %s selects nothing", q.Label)
	}
	// The paper disallows self references (§VIII): an entity may appear
	// only once on a query path, since attribute references could not
	// otherwise distinguish the occurrences.
	seen := map[*model.Entity]bool{}
	for _, e := range q.Path.Entities() {
		if seen[e] {
			return fmt.Errorf("workload: query %s visits entity %s twice (self references are not supported)", q.Label, e.Name)
		}
		seen[e] = true
	}
	check := func(r AttrRef, what string) error {
		if r.Index < 0 || r.Index >= q.Path.Len() {
			return fmt.Errorf("workload: %s reference %s off the query path", what, r)
		}
		if q.Path.EntityAt(r.Index) != r.Attr.Entity {
			return fmt.Errorf("workload: %s reference %s does not match path entity %s",
				what, r, q.Path.EntityAt(r.Index).Name)
		}
		return nil
	}
	for _, s := range q.Select {
		if err := check(s, "select"); err != nil {
			return err
		}
	}
	for _, p := range q.Where {
		if err := check(p.Ref, "where"); err != nil {
			return err
		}
		if p.Op.IsRange() && !p.Ref.Attr.Type.Ordered() {
			return fmt.Errorf("workload: range predicate on unordered attribute %s", p.Ref)
		}
	}
	for _, o := range q.Order {
		if err := check(o, "order"); err != nil {
			return err
		}
		if !o.Attr.Type.Ordered() {
			return fmt.Errorf("workload: ORDER BY on unordered attribute %s", o)
		}
	}
	return nil
}
