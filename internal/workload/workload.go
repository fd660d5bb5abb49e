package workload

import (
	"fmt"
	"math"

	"nose/internal/model"
)

// WeightedStatement pairs a statement with its frequency weight(s). A
// statement may carry a single default weight or one weight per named
// workload mix (paper §VII-A evaluates browsing, bidding, and
// write-scaled mixes of the same statement set).
type WeightedStatement struct {
	// Statement is the workload statement.
	Statement Statement
	// Weight is the default relative frequency.
	Weight float64
	// MixWeights optionally overrides Weight per named mix.
	MixWeights map[string]float64
}

// WeightIn returns the statement's weight under the named mix, falling
// back to the default weight when the mix does not override it. The
// empty mix name always selects the default weight.
func (ws *WeightedStatement) WeightIn(mix string) float64 {
	if mix != "" {
		if w, ok := ws.MixWeights[mix]; ok {
			return w
		}
	}
	return ws.Weight
}

// Workload is the advisor's description of an application: a conceptual
// model plus weighted statements.
type Workload struct {
	// Graph is the conceptual model all statements resolve against.
	Graph *model.Graph
	// Statements holds the weighted statements in definition order.
	Statements []*WeightedStatement
	// ActiveMix selects which mix's weights apply; empty means the
	// default weights.
	ActiveMix string
	// Phases, when non-empty, orders the time-dependent intervals of
	// the workload; see Phase. Static advising ignores it.
	Phases []*Phase
}

// New returns an empty workload over the given conceptual model.
func New(g *model.Graph) *Workload {
	return &Workload{Graph: g}
}

// Add appends a statement with the given default weight.
func (w *Workload) Add(s Statement, weight float64) *WeightedStatement {
	ws := &WeightedStatement{Statement: s, Weight: weight}
	w.Statements = append(w.Statements, ws)
	return ws
}

// AddMixed appends a statement with per-mix weights; the default weight
// is that of the lexicographically first mix, the one Mixes lists
// first.
func (w *Workload) AddMixed(s Statement, mixWeights map[string]float64) *WeightedStatement {
	ws := &WeightedStatement{Statement: s, MixWeights: mixWeights}
	first, found := "", false
	for name, v := range mixWeights {
		if !found || name < first {
			first, ws.Weight, found = name, v, true
		}
	}
	w.Statements = append(w.Statements, ws)
	return ws
}

// Queries returns the read statements with their active-mix weights,
// excluding zero-weight entries.
func (w *Workload) Queries() []*WeightedStatement {
	var out []*WeightedStatement
	for _, ws := range w.Statements {
		if _, ok := ws.Statement.(*Query); ok && ws.WeightIn(w.ActiveMix) > 0 {
			out = append(out, ws)
		}
	}
	return out
}

// Updates returns the write statements with their active-mix weights,
// excluding zero-weight entries.
func (w *Workload) Updates() []*WeightedStatement {
	var out []*WeightedStatement
	for _, ws := range w.Statements {
		if _, ok := ws.Statement.(WriteStatement); ok && ws.WeightIn(w.ActiveMix) > 0 {
			out = append(out, ws)
		}
	}
	return out
}

// Weight returns the statement's weight under the active mix.
func (w *Workload) Weight(ws *WeightedStatement) float64 {
	return ws.WeightIn(w.ActiveMix)
}

// StatementByLabel returns the first statement with the given label, or
// nil.
func (w *Workload) StatementByLabel(label string) *WeightedStatement {
	for _, ws := range w.Statements {
		if labelOf(ws.Statement) == label {
			return ws
		}
	}
	return nil
}

func labelOf(s Statement) string {
	switch st := s.(type) {
	case *Query:
		return st.Label
	case *Insert:
		return st.Label
	case *Update:
		return st.Label
	case *Delete:
		return st.Label
	case *Connect:
		return st.Label
	default:
		return ""
	}
}

// Label returns the statement's label, or its rendered text when
// unlabeled.
func Label(s Statement) string {
	if l := labelOf(s); l != "" {
		return l
	}
	return s.String()
}

// Mixes returns the sorted set of mix names mentioned by any statement.
func (w *Workload) Mixes() []string {
	seen := map[string]bool{}
	var out []string
	for _, ws := range w.Statements {
		for m := range ws.MixWeights {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Validate checks every statement against the conceptual model, and
// every weight it carries, by default or per mix: each must be finite
// and non-negative (zero excludes the statement).
func (w *Workload) Validate() error {
	mixes := w.Mixes()
	for _, ws := range w.Statements {
		if q, ok := ws.Statement.(*Query); ok {
			if err := q.Validate(); err != nil {
				return fmt.Errorf("workload: statement %q: %w", Label(q), err)
			}
		}
		if !validWeight(ws.Weight) {
			return fmt.Errorf("workload: statement %q has weight %g; a weight must be finite and non-negative", Label(ws.Statement), ws.Weight)
		}
		for _, mix := range mixes {
			if v, ok := ws.MixWeights[mix]; ok && !validWeight(v) {
				return fmt.Errorf("workload: statement %q has weight %g in mix %q; a weight must be finite and non-negative", Label(ws.Statement), v, mix)
			}
		}
	}
	return nil
}

// validWeight reports whether v is finite and non-negative: NaN fails
// the comparison.
func validWeight(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1)
}
