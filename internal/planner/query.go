package planner

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"nose/internal/enumerator"
	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

// PlanQuery generates the plan space for one query over the planner's
// candidate pool: every way of decomposing the query path into a chain
// of lookups, each realized by every usable candidate column family,
// with client-side filters for relaxed predicates and a client-side
// sort when no clustering key serves the ordering (paper §IV-C).
func (p *Planner) PlanQuery(q *workload.Query) (*PlanSpace, error) {
	if len(q.EqualityPredicates()) == 0 {
		return nil, fmt.Errorf("planner: query %q has no equality predicate", workload.Label(q))
	}

	g := newGenerator(p)
	defer g.release()
	raw := g.orientedChains(q)
	if !p.cfg.SkipReverse {
		if rev := enumerator.ReverseQuery(q); rev != q {
			raw = append(raw, g.orientedChains(rev)...)
		}
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("planner: no plan found for query %q", workload.Label(q))
	}
	best := g.cheapest(raw, p.cfg.MaxPlansPerQuery)
	plans := make([]*Plan, len(best))
	for i, c := range best {
		plans[i] = &Plan{Query: q, Steps: c.steps, Cost: c.cost.total, Rows: c.cost.rows}
	}
	return &PlanSpace{Query: q, Plans: plans}, nil
}

// generator is the state of one PlanQuery call: the planner plus the
// table that interns step signatures, so a chain is identified by a
// short sequence of integers instead of a concatenated string.
type generator struct {
	*Planner
	// ids maps a step signature to its index in sigs. Each step's
	// signature string is built exactly once, when the step is interned.
	ids  map[string]uint32
	sigs []string
	*scratch
}

// scratch is what generation would otherwise allocate and discard per
// chains or cheapest call. A generator borrows one from its planner for
// the length of the call; nothing in it outlives a call as data, so
// which one a call gets changes no result.
type scratch struct {
	// seen and costs are cheapest's duplicate set and cost column.
	seen  map[string]struct{}
	costs []float64
	// free holds the candidate arrays finished chains calls have handed
	// back: a stack, since chains recurses while its own array is live.
	free [][]chain
}

func newGenerator(p *Planner) *generator {
	var sc *scratch
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		sc, p.idle = p.idle[n-1], p.idle[:n-1]
	}
	p.mu.Unlock()
	if sc == nil {
		sc = &scratch{seen: map[string]struct{}{}}
	}
	return &generator{Planner: p, ids: map[string]uint32{}, scratch: sc}
}

// release returns the generator's scratch to the planner.
func (g *generator) release() {
	g.mu.Lock()
	g.idle = append(g.idle, g.scratch)
	g.mu.Unlock()
}

// chain is a step sequence together with its identity and cost, both
// carried along the decomposition so that neither is ever recomputed
// from the steps.
type chain struct {
	// steps is nil while the chain is an unmaterialized candidate
	// head ++ tail; only beam survivors get a slice of their own.
	steps      []Step
	head, tail *chain
	// id packs the interned ids of the steps, four big-endian bytes
	// each. Two chains have equal ids exactly when their signature
	// strings are equal ('|' separates signatures and occurs in none).
	id string
	// cost is the costing fold's state after the last step.
	cost costState
}

// intern returns the id of the step's signature.
func (g *generator) intern(st Step) uint32 {
	sig := st.signature()
	id, ok := g.ids[sig]
	if !ok {
		id = uint32(len(g.sigs))
		g.ids[sig] = id
		g.sigs = append(g.sigs, sig)
	}
	return id
}

// newChain interns and costs a step sequence from scratch.
func (g *generator) newChain(steps []Step) chain {
	var buf [32]byte // most chains are a handful of steps: one allocation, for the string
	id := buf[:0]
	for _, st := range steps {
		id = binary.BigEndian.AppendUint32(id, g.intern(st))
	}
	return chain{steps: steps, id: string(id), cost: g.fold(costState{}, steps)}
}

// join returns the candidate f ++ r without building its step slice:
// the identity is a concatenation and the cost a continuation of f's
// fold over r's steps — the same float operations, in the same order,
// as costing the joined sequence from scratch. Both operands must be
// materialized and must outlive the candidate.
func (g *generator) join(f, r *chain) chain {
	return chain{head: f, tail: r, id: f.id + r.id, cost: g.fold(f.cost, r.steps)}
}

// concat returns f ++ r with a step slice of its own.
func (g *generator) concat(f, r *chain) chain {
	c := g.join(f, r)
	c.materialize()
	return c
}

// materialize gives a candidate its own step slice. Chains shared
// through memoization are never mutated.
func (c *chain) materialize() {
	if c.steps != nil {
		return
	}
	c.steps = make([]Step, 0, len(c.head.steps)+len(c.tail.steps))
	c.steps = append(append(c.steps, c.head.steps...), c.tail.steps...)
	c.head, c.tail = nil, nil
}

// cheapest removes duplicate chains (keeping the first generated) and
// returns the limit cheapest, ordered by cost and then by signature.
// It reorders cs in place.
func (g *generator) cheapest(cs []chain, limit int) []chain {
	seen := g.seen
	clear(seen)
	uniq := cs[:0]
	for _, c := range cs {
		if _, dup := seen[c.id]; dup {
			continue
		}
		seen[c.id] = struct{}{}
		uniq = append(uniq, c)
	}
	if len(uniq) > limit {
		// Candidates outnumber the survivors many times over, and the
		// signature tie-break is the expensive comparison: find the
		// cost of the limit-th cheapest first, and order only the
		// chains at or below it.
		costs := g.costs[:0]
		for i := range uniq {
			costs = append(costs, uniq[i].cost.total)
		}
		g.costs = costs
		sort.Float64s(costs)
		bound, within := costs[limit-1], uniq[:0]
		for _, c := range uniq {
			if c.cost.total <= bound {
				within = append(within, c)
			}
		}
		uniq = within
	}
	sort.Slice(uniq, func(i, j int) bool {
		if uniq[i].cost.total != uniq[j].cost.total {
			return uniq[i].cost.total < uniq[j].cost.total
		}
		return g.signatureLess(uniq[i].id, uniq[j].id)
	})
	if len(uniq) > limit {
		uniq = uniq[:limit]
	}
	for i := range uniq {
		uniq[i].materialize()
	}
	return uniq
}

// signatureLess orders two distinct chain ids exactly as comparing
// their signature strings ("sig|sig|…") would. Equal leading ids are
// skipped and the first differing pair of step signatures decides,
// unless one is a prefix of the other: then the shorter one's '|'
// meets the longer one's next byte, and the strings are built.
func (g *generator) signatureLess(a, b string) bool {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	i &^= 3
	if i == n {
		return len(a) < len(b)
	}
	sa, sb := g.sigs[stepID(a, i)], g.sigs[stepID(b, i)]
	if !strings.HasPrefix(sa, sb) && !strings.HasPrefix(sb, sa) {
		return sa < sb
	}
	return g.signature(a[i:]) < g.signature(b[i:])
}

// stepID decodes the step id at byte offset i of a chain id.
func stepID(id string, i int) uint32 {
	return uint32(id[i])<<24 | uint32(id[i+1])<<16 | uint32(id[i+2])<<8 | uint32(id[i+3])
}

// signature expands a chain id into the signature string of its steps.
func (g *generator) signature(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i += 4 {
		b.WriteString(g.sigs[stepID(id, i)])
		b.WriteByte('|')
	}
	return b.String()
}

// orientedChains generates the chains for one orientation of a query.
func (g *generator) orientedChains(q *workload.Query) []chain {
	if len(q.Order) == 0 {
		chains := g.chains(q, newChainMemo())
		if q.Limit == 0 {
			return chains
		}
		return g.withTail(chains, &LimitStep{N: q.Limit})
	}

	// Plans whose single lookup serves the ordering via clustering.
	raw := g.segmentVariants(enumerator.PrefixQuery(q, 0), q.Order)
	if q.Limit > 0 {
		limit := g.newChain([]Step{&LimitStep{N: q.Limit}})
		for i := range raw {
			c := &raw[i]
			if ls, ok := c.steps[0].(*LookupStep); ok && len(c.steps) == 1 {
				// The get itself stops at the limit, which changes
				// what it fetches: cost the lookup again.
				ls.Limit = q.Limit
				c.cost = g.fold(costState{}, c.steps)
			} else {
				*c = g.concat(c, &limit)
			}
		}
	}
	// Plans that sort client-side over the order-relaxed query.
	tail := []Step{&SortStep{By: q.Order}}
	if q.Limit > 0 {
		tail = append(tail, &LimitStep{N: q.Limit})
	}
	return append(raw, g.withTail(g.chains(enumerator.RelaxOrder(q), newChainMemo()), tail...)...)
}

// withTail returns every chain extended by the same trailing steps.
func (g *generator) withTail(chains []chain, steps ...Step) []chain {
	tail := g.newChain(steps)
	out := make([]chain, len(chains))
	for i := range chains {
		out[i] = g.concat(&chains[i], &tail)
	}
	return out
}

// chainMemo memoizes chain generation per structural query signature
// and breaks the cycle introduced by decomposing at the far end of a
// path (which reproduces the parent query).
type chainMemo struct {
	done       map[string][]chain
	inProgress map[string]bool
}

func newChainMemo() *chainMemo {
	return &chainMemo{done: map[string][]chain{}, inProgress: map[string]bool{}}
}

// chains enumerates step chains answering q, ignoring ordering: for
// each decomposition point, every single-lookup variant of the prefix
// query concatenated with every chain of the remainder query. The
// returned chains are materialized and shared through the memo.
func (g *generator) chains(q *workload.Query, memo *chainMemo) []chain {
	sig := enumerator.QuerySignature(q)
	if res, ok := memo.done[sig]; ok {
		return res
	}
	if memo.inProgress[sig] {
		return nil
	}
	memo.inProgress[sig] = true
	defer func() { memo.inProgress[sig] = false }()

	var out []chain
	if n := len(g.free); n > 0 {
		out, g.free = g.free[n-1], g.free[:n-1]
	}
	n := q.Path.Len() - 1
	for s := 0; s <= n; s++ {
		prefix := enumerator.PrefixQuery(q, s)
		if len(prefix.EqualityPredicates()) == 0 {
			continue
		}
		firsts := g.segmentVariants(prefix, nil)
		if s == 0 {
			out = append(out, firsts...)
			continue
		}
		if len(firsts) == 0 {
			continue
		}
		rems := g.chains(enumerator.RemainderQuery(q, s), memo)
		out = slices.Grow(out, len(firsts)*len(rems))
		for f := range firsts {
			for r := range rems {
				out = append(out, g.join(&firsts[f], &rems[r]))
			}
		}
	}
	out = g.pruneChains(out)
	memo.done[sig] = out
	return out
}

// pruneChains bounds the chain set of one (sub)query with a beam:
// duplicates are removed and only the cheapest chains are kept, at a
// width comfortably above the final plan-space cap. Without this, the
// cartesian combination of per-segment variants across decomposition
// points grows multiplicatively with path length. A set already within
// the beam is kept as generated.
func (g *generator) pruneChains(out []chain) []chain {
	kept := out
	if limit := 4 * g.cfg.MaxPlansPerQuery; len(out) > limit {
		kept = g.cheapest(out, limit)
	} else {
		for i := range out {
			out[i].materialize()
		}
	}
	// Copy the survivors out of the candidate array, which is many
	// times the beam, and hand the array to the next chains call.
	kept = slices.Clone(kept)
	g.free = append(g.free, out[:0])
	return kept
}

// segmentVariants generates every single-lookup realization of a prefix
// query: one per (relaxation, usable column family) combination, each a
// lookup optionally followed by enrichment lookups and a filter.
func (g *generator) segmentVariants(pq *workload.Query, order []workload.AttrRef) []chain {
	var out []chain
	relaxable := enumerator.RelaxablePredicates(pq)
	if g.cfg.SkipRelaxation {
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
		out = append(out, g.lookupVariants(rq, removed, order)...)
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
func (g *generator) lookupVariants(rq *workload.Query, removed []workload.Predicate, order []workload.AttrRef) []chain {
	eq := rq.EqualityPredicates()
	partitionWant := attrKeySet(predAttrs(eq))
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

	var out []chain
	for _, cf := range g.candidatesFor(partitionWant) {
		if !pathCoversSegment(cf.Path, rq.Path) {
			continue
		}
		if !cf.ContainsAll(keyOut) {
			continue
		}
		servesOrder := false
		if len(order) > 0 {
			if !clusteringPrefixMatches(cf, order) {
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
		enrich, ok := g.enrichSteps(missing)
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
		out = append(out, g.newChain(steps))
	}
	return out
}

// enrichSteps builds id-keyed lookups supplying the missing attributes,
// one per entity, choosing for each entity the pool family with the
// least read amplification. It reports failure when some attribute has
// no id-keyed family in the pool.
func (p *Planner) enrichSteps(missing []*model.Attribute) ([]Step, bool) {
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
		want := attrKeySet([]*model.Attribute{e.Key()})
		var best *schema.Index
		for _, cf := range p.candidatesFor(want) {
			if !cf.ContainsAll(perEntity[e]) {
				continue
			}
			if best == nil || enrichBetter(cf, best, e) {
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

// enrichBetter orders enrichment candidates: least read amplification
// for the driving entity, then smallest rows, then canonical id.
func enrichBetter(a, b *schema.Index, e *model.Entity) bool {
	fa, fb := a.EntityFanout(e), b.EntityFanout(e)
	if fa != fb {
		return fa < fb
	}
	if ra, rb := a.RowSize(), b.RowSize(); ra != rb {
		return ra < rb
	}
	return a.ID() < b.ID()
}

// clusteringPrefixMatches reports whether the family's clustering key
// starts with exactly the given ordering attributes.
func clusteringPrefixMatches(cf *schema.Index, order []workload.AttrRef) bool {
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

// pathCoversSegment reports whether a column family anchored to
// cfPath can answer a lookup over segment: every segment entity must
// lie on the family's path and every segment relationship edge must be
// traversed by it (in either direction). Without this check a family
// keyed by the same partition attributes but materializing a different
// relationship would silently answer with wrong combinations.
func pathCoversSegment(cfPath, segment model.Path) bool {
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

func predAttrs(preds []workload.Predicate) []*model.Attribute {
	out := make([]*model.Attribute, 0, len(preds))
	for _, p := range preds {
		out = append(out, p.Ref.Attr)
	}
	return out
}

// attrKeySet canonicalizes an attribute set as a sorted joined string.
func attrKeySet(attrs []*model.Attribute) string {
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
