package planner

import (
	"fmt"
	"strings"

	"nose/internal/schema"
	"nose/internal/workload"
)

// Plan is one implementation plan for a query: an ordered sequence of
// primitive steps with an estimated execution cost.
type Plan struct {
	// Query is the statement the plan answers.
	Query *workload.Query
	// Steps are the plan's operations in execution order.
	Steps []Step
	// Cost is the estimated cost of one execution under the planner's
	// cost model.
	Cost float64
	// Rows is the estimated number of result rows.
	Rows float64

	// indexes is what Indexes returns, set when the planner builds the
	// plan.
	indexes []*schema.Index
}

// Indexes returns the distinct column families the plan reads, in first
// use order. The slice is the plan's own, computed once when the planner
// built it, and must be treated as read-only; for a plan built
// elsewhere it is computed on each call.
func (p *Plan) Indexes() []*schema.Index {
	if p.indexes != nil {
		return p.indexes
	}
	return stepIndexes(p.Steps)
}

// stepIndexes returns the distinct column families steps read, in first
// use order. A plan has a handful of lookups, so a linear scan dedupes
// them by ID.
func stepIndexes(steps []Step) []*schema.Index {
	n := 0
	for _, s := range steps {
		if _, ok := s.(*LookupStep); ok {
			n++
		}
	}
	out := make([]*schema.Index, 0, n)
	for _, s := range steps {
		if ls, ok := s.(*LookupStep); ok && !containsIndex(out, ls.Index) {
			out = append(out, ls.Index)
		}
	}
	return out
}

// containsIndex reports whether xs holds a family with x's ID.
func containsIndex(xs []*schema.Index, x *schema.Index) bool {
	for _, y := range xs {
		if y.ID() == x.ID() {
			return true
		}
	}
	return false
}

// Signature canonically identifies the plan's structure for
// deduplication. The planner dedupes chains by interned step ids before
// a Plan exists (query.go); the planner and search tests compare
// finished plans by this string.
func (p *Plan) Signature() string { return stepsSignature(p.Steps) }

// stepsSignature canonically identifies a step sequence.
func stepsSignature(steps []Step) string {
	var b strings.Builder
	for _, s := range steps {
		b.WriteString(s.signature())
		b.WriteByte('|')
	}
	return b.String()
}

// String renders the plan as a numbered step list with its cost.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %s (cost %.4f):\n", workload.Label(p.Query), p.Cost)
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "  %d. %s\n", i+1, s.Describe())
	}
	return b.String()
}

// PlanSpace is the set of alternative plans for one query (paper
// §IV-C); the schema optimizer chooses exactly one.
type PlanSpace struct {
	// Query is the planned statement.
	Query *workload.Query
	// Plans are the alternatives, cheapest first.
	Plans []*Plan
}

// UpdatePlan describes how one write statement maintains one column
// family (paper §VI-B): execute the support queries (whose own plans
// the optimizer chooses), then issue delete and/or put requests.
type UpdatePlan struct {
	// Statement is the write statement.
	Statement workload.WriteStatement
	// Index is the column family maintained.
	Index *schema.Index
	// DeleteRequests estimates the delete operations issued per
	// execution.
	DeleteRequests float64
	// InsertRequests estimates the put operations issued per
	// execution.
	InsertRequests float64
	// InsertCells estimates the attribute cells written per execution.
	InsertCells float64
	// WriteCost is the estimated cost of the delete and put requests
	// (excluding support queries, which the optimizer prices through
	// their chosen plans). This is the per-execution form of the
	// paper's C'mn coefficient.
	WriteCost float64
}

// String renders the update plan summary.
func (up *UpdatePlan) String() string {
	return fmt.Sprintf("update plan %s on %s: %.1f deletes, %.1f inserts (write cost %.4f)",
		workload.Label(up.Statement), up.Index.Name, up.DeleteRequests, up.InsertRequests, up.WriteCost)
}
