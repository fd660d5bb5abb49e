package planner

import (
	"sort"

	"nose/internal/enumerator"
	"nose/internal/workload"
)

// The oracle below is the plan-space generator as it was when chains
// were bare step slices: every candidate concatenation is built, its
// signature string is assembled with stepsSignature, and its cost is
// estimated from scratch. Only segment generation is shared with the
// production path. The differential tests require the fold-carried,
// interned path to reproduce it exactly — beams, plan order, steps and
// cost bits.

// oracleMemo is the oracle's chain memo, keyed like chainMemo.
type oracleMemo struct {
	done       map[string][][]Step
	inProgress map[string]bool
}

func newOracleMemo() *oracleMemo {
	return &oracleMemo{done: map[string][][]Step{}, inProgress: map[string]bool{}}
}

func oracleAppend(steps []Step, more ...Step) []Step {
	out := make([]Step, 0, len(steps)+len(more))
	return append(append(out, steps...), more...)
}

func oracleSegments(g *generator, pq *workload.Query, order []workload.AttrRef) [][]Step {
	var out [][]Step
	for _, c := range g.segmentVariants(pq, order) {
		out = append(out, c.steps)
	}
	return out
}

// oracleCheapest dedupes on signature strings (first wins), sorts on
// (from-scratch cost, signature string) and truncates.
func oracleCheapest(p *Planner, raw [][]Step, limit int) [][]Step {
	type scored struct {
		steps []Step
		cost  float64
		sig   string
	}
	var uniq []scored
	seen := map[string]bool{}
	for _, steps := range raw {
		sig := stepsSignature(steps)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		uniq = append(uniq, scored{steps, p.fold(costState{}, steps).total, sig})
	}
	sort.Slice(uniq, func(i, j int) bool {
		if uniq[i].cost != uniq[j].cost {
			return uniq[i].cost < uniq[j].cost
		}
		return uniq[i].sig < uniq[j].sig
	})
	if len(uniq) > limit {
		uniq = uniq[:limit]
	}
	out := make([][]Step, len(uniq))
	for i, s := range uniq {
		out[i] = s.steps
	}
	return out
}

func oracleChains(g *generator, q *workload.Query, memo *oracleMemo) [][]Step {
	sig := enumerator.QuerySignature(q)
	if res, ok := memo.done[sig]; ok {
		return res
	}
	if memo.inProgress[sig] {
		return nil
	}
	memo.inProgress[sig] = true
	defer func() { memo.inProgress[sig] = false }()

	var out [][]Step
	for s := 0; s < q.Path.Len(); s++ {
		prefix := enumerator.PrefixQuery(q, s)
		if len(prefix.EqualityPredicates()) == 0 {
			continue
		}
		firsts := oracleSegments(g, prefix, nil)
		if s == 0 {
			out = append(out, firsts...)
			continue
		}
		if len(firsts) == 0 {
			continue
		}
		rems := oracleChains(g, enumerator.RemainderQuery(q, s), memo)
		for _, f := range firsts {
			for _, r := range rems {
				out = append(out, oracleAppend(f, r...))
			}
		}
	}
	if limit := 4 * g.cfg.MaxPlansPerQuery; len(out) > limit {
		out = oracleCheapest(g.Planner, out, limit)
	}
	memo.done[sig] = out
	return out
}

func oracleOriented(g *generator, q *workload.Query) [][]Step {
	var raw [][]Step
	if len(q.Order) == 0 {
		for _, steps := range oracleChains(g, q, newOracleMemo()) {
			if q.Limit > 0 {
				steps = oracleAppend(steps, &LimitStep{N: q.Limit})
			}
			raw = append(raw, steps)
		}
		return raw
	}
	for _, steps := range oracleSegments(g, enumerator.PrefixQuery(q, 0), q.Order) {
		if q.Limit > 0 {
			if ls, ok := steps[0].(*LookupStep); ok && len(steps) == 1 {
				ls.Limit = q.Limit
			} else {
				steps = oracleAppend(steps, &LimitStep{N: q.Limit})
			}
		}
		raw = append(raw, steps)
	}
	for _, steps := range oracleChains(g, enumerator.RelaxOrder(q), newOracleMemo()) {
		steps = oracleAppend(steps, &SortStep{By: q.Order})
		if q.Limit > 0 {
			steps = append(steps, &LimitStep{N: q.Limit})
		}
		raw = append(raw, steps)
	}
	return raw
}

// OraclePlanQuery is PlanQuery by the string-keyed oracle, exported to
// the external tests (which can import workloads that depend on this
// package). It returns nil where PlanQuery returns an error.
func OraclePlanQuery(p *Planner, q *workload.Query) []*Plan {
	if len(q.EqualityPredicates()) == 0 {
		return nil
	}
	g := newGenerator(p)
	raw := oracleOriented(g, q)
	if !p.cfg.SkipReverse {
		if rev := enumerator.ReverseQuery(q); rev != q {
			raw = append(raw, oracleOriented(g, rev)...)
		}
	}
	var plans []*Plan
	for _, steps := range oracleCheapest(p, raw, p.cfg.MaxPlansPerQuery) {
		st := p.fold(costState{}, steps)
		plans = append(plans, &Plan{Query: q, Steps: steps, Cost: st.total, Rows: st.rows})
	}
	return plans
}
