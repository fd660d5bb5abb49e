package planner

import (
	"sort"
	"strings"

	"nose/internal/enumerator"
	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

// The oracle below is the plan-space generator as it was when chains
// were bare step slices and nothing was remembered between calls: every
// segment is generated afresh with newly allocated steps (the bodies of
// segmentVariants, lookupVariants, enrichSteps, pathCoversSegment and
// the partition index as they stood before the planner-wide step table
// and segment memo), every candidate concatenation is built, its
// signature string is assembled with stepsSignature, and its cost is
// estimated from scratch. It shares the costing fold and the planner's
// configuration with production and no generation code. The
// differential tests require the fold-carried, interned, memoised path
// to reproduce it exactly — beams, plan order, steps and cost bits.

// Oracle is the reference generator over one planner's pool and
// configuration, exported to the external tests (which can import
// workloads that depend on this package).
type Oracle struct {
	*Planner
	byPartition map[string][]*schema.Index
	// sigs caches signature strings by step pointer (a step recurs in
	// many candidate concatenations), so the oracle's runtime is not all
	// string building. Not safe for concurrent use.
	sigs map[Step]string
}

// NewOracle indexes p's pool for the reference generator.
func NewOracle(p *Planner) *Oracle {
	o := &Oracle{Planner: p, byPartition: map[string][]*schema.Index{}, sigs: map[Step]string{}}
	for _, x := range p.pool.Indexes() {
		k := oracleAttrKeySet(x.Partition)
		o.byPartition[k] = append(o.byPartition[k], x)
	}
	return o
}

// oracleAttrKeySet canonicalizes an attribute set as a sorted joined string.
func oracleAttrKeySet(attrs []*model.Attribute) string {
	names := make([]string, 0, len(attrs))
	for _, a := range attrs {
		names = append(names, a.QualifiedName())
	}
	sort.Strings(names)
	key := ""
	for _, n := range names {
		key += n + "|"
	}
	return key
}

// segmentVariants generates every single-lookup realization of a prefix
// query: one per (relaxation, usable column family) combination, each a
// lookup optionally followed by enrichment lookups and a filter.
func (o *Oracle) segmentVariants(pq *workload.Query, order []workload.AttrRef) [][]Step {
	var out [][]Step
	relaxable := enumerator.RelaxablePredicates(pq)
	if o.cfg.SkipRelaxation {
		relaxable = nil
	}
	for mask := 0; mask < 1<<uint(len(relaxable)); mask++ {
		var removed []workload.Predicate
		for i, pr := range relaxable {
			if mask&(1<<uint(i)) != 0 {
				removed = append(removed, pr)
			}
		}
		rq := pq
		if len(removed) > 0 {
			rq = enumerator.RelaxQuery(pq, removed)
		}
		if len(rq.EqualityPredicates()) == 0 {
			continue
		}
		out = append(out, o.lookupVariants(rq, removed, order)...)
	}
	return out
}

// lookupVariants generates the step sequences answering rq with one
// lookup per usable column family: the partition key must equal the
// equality predicate attributes, selected entity keys must be stored,
// ordering (when required) must be served by a clustering prefix, and
// any needed attribute the family lacks is fetched by an id-keyed
// enrichment lookup. Removed and unpushed range predicates become
// client-side filters.
func (o *Oracle) lookupVariants(rq *workload.Query, removed []workload.Predicate, order []workload.AttrRef) [][]Step {
	eq := rq.EqualityPredicates()
	var eqAttrs []*model.Attribute
	for _, pr := range eq {
		eqAttrs = append(eqAttrs, pr.Ref.Attr)
	}
	partitionWant := oracleAttrKeySet(eqAttrs)
	rangePreds := rq.RangePredicates()

	var keyOut []*model.Attribute
	var deferrable []*model.Attribute
	for _, s := range rq.Select {
		if s.Attr.IsKey() {
			keyOut = append(keyOut, s.Attr)
		} else {
			deferrable = append(deferrable, s.Attr)
		}
	}

	var joinKey *model.Attribute
	var boundEq []workload.Predicate
	for _, pr := range eq {
		if joinKey == nil && isJoinParam(pr.Param) {
			joinKey = pr.Ref.Attr
			continue
		}
		boundEq = append(boundEq, pr)
	}

	var out [][]Step
	for _, cf := range o.byPartition[partitionWant] {
		if !oraclePathCoversSegment(cf.Path, rq.Path) {
			continue
		}
		if !cf.ContainsAll(keyOut) {
			continue
		}
		servesOrder := false
		if len(order) > 0 {
			if !oracleClusteringPrefixMatches(cf, order) {
				continue
			}
			servesOrder = true
		}

		// Push at most one range predicate: its attribute must be the
		// first clustering column so the get's clustering range stays
		// contiguous. When ordering is served this still holds only if
		// the ordering attribute is the range attribute itself.
		var pushed *workload.Predicate
		var pending []workload.Predicate
		for i := range rangePreds {
			rp := rangePreds[i]
			if pushed == nil && len(cf.Clustering) > 0 && cf.Clustering[0] == rp.Ref.Attr {
				cp := rp
				pushed = &cp
				continue
			}
			pending = append(pending, rp)
		}

		// Attributes that must be available beyond the keys: non-key
		// outputs, relaxed predicate attributes, and unpushed range
		// attributes.
		needed := map[*model.Attribute]bool{}
		var neededOrder []*model.Attribute
		addNeeded := func(a *model.Attribute) {
			if !needed[a] {
				needed[a] = true
				neededOrder = append(neededOrder, a)
			}
		}
		for _, a := range deferrable {
			addNeeded(a)
		}
		for _, pr := range removed {
			addNeeded(pr.Ref.Attr)
		}
		for _, pr := range pending {
			addNeeded(pr.Ref.Attr)
		}

		var missing []*model.Attribute
		ok := true
		for _, a := range neededOrder {
			if cf.Contains(a) {
				continue
			}
			// An id-keyed enrichment lookup can only run if the main
			// family exposes that entity's id to drive it.
			if !cf.Contains(a.Entity.Key()) {
				ok = false
				break
			}
			missing = append(missing, a)
		}
		if !ok {
			continue
		}
		enrich, ok := o.enrichSteps(missing)
		if !ok {
			continue
		}

		steps := []Step{&LookupStep{
			Index:          cf,
			EqPredicates:   boundEq,
			JoinKey:        joinKey,
			RangePredicate: pushed,
			ServesOrder:    servesOrder,
		}}
		steps = append(steps, enrich...)
		filters := append(append([]workload.Predicate{}, removed...), pending...)
		if len(filters) > 0 {
			steps = append(steps, &FilterStep{Predicates: filters})
		}
		out = append(out, steps)
	}
	return out
}

// enrichSteps builds id-keyed lookups supplying the missing attributes,
// one per entity, choosing for each entity the pool family with the
// least read amplification. It reports failure when some attribute has
// no id-keyed family in the pool.
func (o *Oracle) enrichSteps(missing []*model.Attribute) ([]Step, bool) {
	if len(missing) == 0 {
		return nil, true
	}
	perEntity := map[*model.Entity][]*model.Attribute{}
	var entities []*model.Entity
	for _, a := range missing {
		if perEntity[a.Entity] == nil {
			entities = append(entities, a.Entity)
		}
		perEntity[a.Entity] = append(perEntity[a.Entity], a)
	}
	var steps []Step
	for _, e := range entities {
		want := oracleAttrKeySet([]*model.Attribute{e.Key()})
		var best *schema.Index
		for _, cf := range o.byPartition[want] {
			if !cf.ContainsAll(perEntity[e]) {
				continue
			}
			if best == nil || oracleEnrichBetter(cf, best, e) {
				best = cf
			}
		}
		if best == nil {
			return nil, false
		}
		steps = append(steps, &LookupStep{Index: best, JoinKey: e.Key()})
	}
	return steps, true
}

// oracleEnrichBetter orders enrichment candidates: least read
// amplification for the driving entity, then smallest rows, then
// canonical id.
func oracleEnrichBetter(a, b *schema.Index, e *model.Entity) bool {
	fa, fb := a.EntityFanout(e), b.EntityFanout(e)
	if fa != fb {
		return fa < fb
	}
	if ra, rb := a.RowSize(), b.RowSize(); ra != rb {
		return ra < rb
	}
	return a.ID() < b.ID()
}

// oracleClusteringPrefixMatches reports whether the family's clustering
// key starts with exactly the given ordering attributes.
func oracleClusteringPrefixMatches(cf *schema.Index, order []workload.AttrRef) bool {
	if len(cf.Clustering) < len(order) {
		return false
	}
	for i, o := range order {
		if cf.Clustering[i] != o.Attr {
			return false
		}
	}
	return true
}

// oraclePathCoversSegment reports whether a column family anchored to
// cfPath can answer a lookup over segment: every segment entity on the
// family's path, every segment edge traversed by it in either direction.
func oraclePathCoversSegment(cfPath, segment model.Path) bool {
	for _, e := range segment.Entities() {
		if !cfPath.Contains(e) {
			return false
		}
	}
	for _, se := range segment.Edges {
		found := false
		for _, ce := range cfPath.Edges {
			if ce == se || ce == se.Inverse {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

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

// signature is stepsSignature over cached step signatures.
func (o *Oracle) signature(steps []Step) string {
	var b strings.Builder
	for _, st := range steps {
		sig, ok := o.sigs[st]
		if !ok {
			sig = st.signature()
			o.sigs[st] = sig
		}
		b.WriteString(sig)
		b.WriteByte('|')
	}
	return b.String()
}

// cheapest dedupes on signature strings (first wins), sorts on
// (from-scratch cost, signature string) and truncates.
func (o *Oracle) cheapest(raw [][]Step, limit int) [][]Step {
	type scored struct {
		steps []Step
		cost  float64
		sig   string
	}
	var uniq []scored
	seen := map[string]bool{}
	for _, steps := range raw {
		sig := o.signature(steps)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		uniq = append(uniq, scored{steps, o.fold(costState{}, steps).total, sig})
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

func oracleChains(o *Oracle, q *workload.Query, memo *oracleMemo) [][]Step {
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
		firsts := o.segmentVariants(prefix, nil)
		if s == 0 {
			out = append(out, firsts...)
			continue
		}
		if len(firsts) == 0 {
			continue
		}
		rems := oracleChains(o, enumerator.RemainderQuery(q, s), memo)
		for _, f := range firsts {
			for _, r := range rems {
				out = append(out, oracleAppend(f, r...))
			}
		}
	}
	if limit := 4 * o.cfg.MaxPlansPerQuery; len(out) > limit {
		out = o.cheapest(out, limit)
	}
	memo.done[sig] = out
	return out
}

func oracleOriented(o *Oracle, q *workload.Query) [][]Step {
	var raw [][]Step
	if len(q.Order) == 0 {
		for _, steps := range oracleChains(o, q, newOracleMemo()) {
			if q.Limit > 0 {
				steps = oracleAppend(steps, &LimitStep{N: q.Limit})
			}
			raw = append(raw, steps)
		}
		return raw
	}
	for _, steps := range o.segmentVariants(enumerator.PrefixQuery(q, 0), q.Order) {
		if q.Limit > 0 {
			if ls, ok := steps[0].(*LookupStep); ok && len(steps) == 1 {
				ls.Limit = q.Limit
			} else {
				steps = oracleAppend(steps, &LimitStep{N: q.Limit})
			}
		}
		raw = append(raw, steps)
	}
	for _, steps := range oracleChains(o, enumerator.RelaxOrder(q), newOracleMemo()) {
		steps = oracleAppend(steps, &SortStep{By: q.Order})
		if q.Limit > 0 {
			steps = append(steps, &LimitStep{N: q.Limit})
		}
		raw = append(raw, steps)
	}
	return raw
}

// PlanQuery is Planner.PlanQuery by the oracle. It returns nil where
// PlanQuery returns an error.
func (o *Oracle) PlanQuery(q *workload.Query) []*Plan {
	if len(q.EqualityPredicates()) == 0 {
		return nil
	}
	raw := oracleOriented(o, q)
	if !o.cfg.SkipReverse {
		if rev := enumerator.ReverseQuery(q); rev != q {
			raw = append(raw, oracleOriented(o, rev)...)
		}
	}
	var plans []*Plan
	for _, steps := range o.cheapest(raw, o.cfg.MaxPlansPerQuery) {
		st := o.fold(costState{}, steps)
		plans = append(plans, &Plan{Query: q, Steps: steps, Cost: st.total, Rows: st.rows})
	}
	return plans
}
