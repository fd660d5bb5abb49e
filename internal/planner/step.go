// Package planner generates the space of implementation plans for each
// workload statement over a pool of candidate column families (paper
// §IV-B, §IV-C). A query plan is a sequence of the application model's
// four primitive operations — index lookup (get), client-side filter,
// client-side sort, and id-chasing join (realized as further lookups
// driven by prior results) — and an update plan is a set of support
// query plans followed by delete and put requests.
package planner

import (
	"fmt"
	"strings"

	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

// Step is one primitive operation in a query implementation plan.
type Step interface {
	// Describe renders the step for plan listings.
	Describe() string
	// signature is the step's canonical string. Plan generation builds
	// it once per step, to intern the step; it never contains '|'.
	signature() string
}

// LookupStep performs get requests against one column family. The first
// lookup of a plan binds its partition key from statement parameters;
// subsequent lookups are driven by ids produced earlier (the
// application-side join of paper §IV-B).
type LookupStep struct {
	// Index is the column family read by the step.
	Index *schema.Index
	// EqPredicates are the statement predicates bound in the partition
	// key by the get request.
	EqPredicates []workload.Predicate
	// JoinKey, when non-nil, is the entity key attribute bound from the
	// driving rows of the previous steps; the step issues one get per
	// driving row.
	JoinKey *model.Attribute
	// RangePredicate, when non-nil, is pushed into the get's clustering
	// key range.
	RangePredicate *workload.Predicate
	// ServesOrder records that the lookup returns rows already in the
	// query's requested order via its clustering key.
	ServesOrder bool
	// Limit, when positive, bounds the rows fetched by the get request
	// (only set on single-lookup plans whose ordering is served).
	Limit int
}

// Describe implements Step.
func (s *LookupStep) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lookup %s %s", s.Index.Name, s.Index)
	if s.JoinKey != nil {
		fmt.Fprintf(&b, " for each %s", s.JoinKey.QualifiedName())
	}
	for _, p := range s.EqPredicates {
		fmt.Fprintf(&b, " [%s]", p)
	}
	if s.RangePredicate != nil {
		fmt.Fprintf(&b, " [range %s]", *s.RangePredicate)
	}
	if s.ServesOrder {
		b.WriteString(" [ordered]")
	}
	if s.Limit > 0 {
		fmt.Fprintf(&b, " [limit %d]", s.Limit)
	}
	return b.String()
}

func (s *LookupStep) signature() string {
	var b strings.Builder
	b.WriteString("L:")
	b.WriteString(s.Index.ID())
	if s.JoinKey != nil {
		b.WriteString("@" + s.JoinKey.QualifiedName())
	}
	for _, p := range s.EqPredicates {
		b.WriteString("=" + p.Ref.Attr.QualifiedName())
	}
	if s.RangePredicate != nil {
		b.WriteString("~" + s.RangePredicate.Ref.Attr.QualifiedName())
	}
	if s.ServesOrder {
		b.WriteString("!o")
	}
	return b.String()
}

// FilterStep applies predicates to the current rows client-side.
type FilterStep struct {
	// Predicates are the conditions applied.
	Predicates []workload.Predicate
}

// Describe implements Step.
func (s *FilterStep) Describe() string {
	parts := make([]string, len(s.Predicates))
	for i, p := range s.Predicates {
		parts[i] = p.String()
	}
	return "filter " + strings.Join(parts, " AND ")
}

func (s *FilterStep) signature() string {
	var b strings.Builder
	b.WriteString("F:")
	for _, p := range s.Predicates {
		b.WriteString(p.Ref.Attr.QualifiedName() + p.Op.String())
	}
	return b.String()
}

// SortStep orders the current rows client-side.
type SortStep struct {
	// By lists the ordering attributes in priority order.
	By []workload.AttrRef
}

// Describe implements Step.
func (s *SortStep) Describe() string {
	parts := make([]string, len(s.By))
	for i, a := range s.By {
		parts[i] = a.String()
	}
	return "sort by " + strings.Join(parts, ", ")
}

func (s *SortStep) signature() string {
	var b strings.Builder
	b.WriteString("S:")
	for _, a := range s.By {
		b.WriteString(a.Attr.QualifiedName() + ",")
	}
	return b.String()
}

// LimitStep truncates the current rows.
type LimitStep struct {
	// N is the maximum number of rows retained.
	N int
}

// Describe implements Step.
func (s *LimitStep) Describe() string { return fmt.Sprintf("limit %d", s.N) }

func (s *LimitStep) signature() string { return fmt.Sprintf("T:%d", s.N) }
