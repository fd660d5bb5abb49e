package planner

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

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
	raw := g.orientedChains(g.raw[:0], q)
	if !p.cfg.SkipReverse {
		if rev := enumerator.ReverseQuery(q); rev != q {
			raw = g.orientedChains(raw, rev)
		}
	}
	g.raw = raw[:0]
	if len(raw) == 0 {
		return nil, fmt.Errorf("planner: no plan found for query %q", workload.Label(q))
	}
	best := g.cheapest(raw, p.cfg.MaxPlansPerQuery)
	plans := make([]*Plan, len(best))
	for i := range best {
		c := best[i].chain()
		plans[i] = &Plan{Query: q, Steps: c.steps, Cost: c.cost.total, Rows: c.cost.rows}
	}
	return &PlanSpace{Query: q, Plans: plans}, nil
}

// generator is the state of one PlanQuery call: the planner, working
// memory borrowed from it, and what the call has counted.
type generator struct {
	*Planner
	*scratch
	// counts is added to the planner's when the call ends. Only the
	// request fields are used.
	counts Counts
}

// scratch is what generation would otherwise allocate and discard per
// chains, cheapest or lookupVariants call. A generator borrows one from
// its planner for the length of the call; nothing in it outlives a call
// as data, so which one a call gets changes no result.
type scratch struct {
	// seen and costs are cheapest's duplicate set and cost column.
	seen  []seenSlot
	costs []float64
	// free holds the candidate arrays finished chains calls have handed
	// back: a stack, since chains recurses while its own array is live.
	free [][]candidate
	// raw is PlanQuery's candidate array and segBuf the array a segment
	// is generated in before it is copied out at its final size.
	raw    []candidate
	segBuf []chain
	// sigs holds the signature strings sig has fetched from the step
	// table, by class, so that ordering chains seldom takes its lock.
	sigs []string
	// missing, group and variant are lookupVariants' per-family lists.
	missing, group []*model.Attribute
	variant        []interned
}

func newGenerator(p *Planner) *generator {
	var sc *scratch
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		sc, p.idle = p.idle[n-1], p.idle[:n-1]
	}
	p.mu.Unlock()
	if sc == nil {
		sc = &scratch{}
	}
	return &generator{Planner: p, scratch: sc}
}

// release returns the generator's scratch to the planner and reports
// its counts.
func (g *generator) release() {
	g.mu.Lock()
	g.idle = append(g.idle, g.scratch)
	g.Planner.counts.SegmentRequests += g.counts.SegmentRequests
	g.Planner.counts.StepRequests += g.counts.StepRequests
	g.Planner.counts.CandidatesExamined += g.counts.CandidatesExamined
	g.Planner.counts.ChainsJoined += g.counts.ChainsJoined
	g.mu.Unlock()
}

// chain is a step sequence together with its identity and cost, both
// carried along the decomposition so that neither is ever recomputed
// from the steps. Chains are shared — through the planner's segments
// and an orientation's memo — and never modified.
type chain struct {
	steps []Step
	// id packs the signature classes of the steps, four big-endian
	// bytes each. Two chains have equal ids exactly when their signature
	// strings are equal ('|' separates signatures and occurs in none).
	id string
	// cost is the costing fold's state after the last step.
	cost costState
}

// candidate is the chain head ++ tail (or head alone when tail is nil)
// before anyone has built its steps or its id: decomposition generates
// many times more of them than survive a beam, so a candidate is only
// what choosing among them needs. Both operands must outlive it.
type candidate struct {
	head, tail *chain
	// hash is a hash of the candidate's id.
	hash uint64
	// cost is the costing fold's state after the last step.
	cost costState
}

// chainOf costs a sequence of interned steps from scratch.
func (g *generator) chainOf(sts ...interned) chain {
	g.counts.StepRequests += int64(len(sts))
	steps := make([]Step, len(sts))
	var buf [32]byte // most chains are a handful of steps: one allocation, for the string
	id := buf[:0]
	for i, st := range sts {
		steps[i] = st.Step
		id = binary.BigEndian.AppendUint32(id, st.class)
	}
	return chain{steps: steps, id: string(id), cost: g.fold(costState{}, steps)}
}

// hashID continues an FNV-1a hash, begun at fnvOffset, over the bytes
// of a chain id.
func hashID(h uint64, id string) uint64 {
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

// whole returns c as a candidate.
func whole(c *chain) candidate {
	return candidate{head: c, hash: hashID(fnvOffset, c.id), cost: c.cost}
}

// appendWhole appends every chain as a candidate of its own.
func appendWhole(out []candidate, chains []chain) []candidate {
	for i := range chains {
		out = append(out, whole(&chains[i]))
	}
	return out
}

// join returns the candidate f ++ r: its cost is a continuation of f's
// fold over r's steps — the same float operations, in the same order,
// as costing the joined sequence from scratch.
func (g *generator) join(f, r *chain) candidate {
	return candidate{head: f, tail: r, hash: hashID(hashID(fnvOffset, f.id), r.id), cost: g.fold(f.cost, r.steps)}
}

// chain builds the candidate's chain.
func (c *candidate) chain() chain {
	if c.tail == nil {
		return *c.head
	}
	steps := make([]Step, 0, len(c.head.steps)+len(c.tail.steps))
	return chain{
		steps: append(append(steps, c.head.steps...), c.tail.steps...),
		id:    c.head.id + c.tail.id,
		cost:  c.cost,
	}
}

// idLen returns the length of the candidate's id.
func (c *candidate) idLen() int {
	if c.tail == nil {
		return len(c.head.id)
	}
	return len(c.head.id) + len(c.tail.id)
}

// class decodes the signature class at byte offset i of the
// candidate's id.
func (c *candidate) class(i int) uint32 {
	id := c.head.id
	if i >= len(id) {
		i -= len(id)
		id = c.tail.id
	}
	return uint32(id[i])<<24 | uint32(id[i+1])<<16 | uint32(id[i+2])<<8 | uint32(id[i+3])
}

// sameID reports whether two candidates' ids are equal.
func sameID(a, b *candidate) bool {
	return a.idLen() == b.idLen() && firstDifference(a, b) == a.idLen()
}

// firstDifference returns the byte offset of the first signature class
// two candidates' ids differ in, or the shorter id's length.
func firstDifference(a, b *candidate) int {
	n := min(a.idLen(), b.idLen())
	i := 0
	for i < n && a.class(i) == b.class(i) {
		i += 4
	}
	return i
}

// cheapest removes duplicate candidates (keeping the first generated)
// and returns the limit cheapest, ordered by cost and then by
// signature. It reorders cs in place. Its work is proportional to
// len(cs), whatever the size of earlier calls.
func (g *generator) cheapest(cs []candidate, limit int) []candidate {
	// seen is an open-addressing set of the kept candidates' hashes, at
	// most half full; two ids that share a hash are told apart by
	// comparing them, and the later one probes on.
	bits := 1
	for 1<<bits < 2*len(cs) {
		bits++
	}
	seen := g.seen
	if cap(seen) < 1<<bits {
		seen = make([]seenSlot, 1<<bits)
	} else {
		seen = seen[:1<<bits]
		clear(seen)
	}
	g.seen = seen
	mask := uint64(len(seen) - 1)
	uniq := cs[:0]
next:
	for i := range cs {
		c := cs[i]
		for h := (c.hash * 0x9e3779b97f4a7c15) >> (64 - bits); ; h = (h + 1) & mask {
			sl := &seen[h]
			if sl.at == 0 {
				*sl = seenSlot{hash: c.hash, at: int32(len(uniq)) + 1}
				break
			}
			if sl.hash == c.hash && sameID(&uniq[sl.at-1], &c) {
				continue next
			}
		}
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
		bound, within := nthSmallest(costs, limit-1), uniq[:0]
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
		return g.signatureLess(&uniq[i], &uniq[j])
	})
	if len(uniq) > limit {
		uniq = uniq[:limit]
	}
	return uniq
}

// seenSlot is one slot of cheapest's duplicate set: a candidate's hash
// and 1 + its index among the kept candidates, 0 for an empty slot.
type seenSlot struct {
	hash uint64
	at   int32
}

// nthSmallest returns the value sort.Float64s would leave at xs[n] — the
// n-th smallest, NaNs first — by quickselect, reordering xs.
func nthSmallest(xs []float64, n int) float64 {
	less := func(a, b float64) bool { return a < b || (a != a && b == b) }
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median of three as the pivot value, which also leaves xs[lo]
		// and xs[hi] as sentinels for the scans below.
		mid := lo + (hi-lo)/2
		if less(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if less(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if less(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for less(xs[i], pivot) {
				i++
			}
			for less(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] ≤ pivot ≤ xs[i..hi], and what lies between equals it.
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return xs[n]
		}
	}
	return xs[n]
}

// signatureLess orders two candidates of different ids exactly as
// comparing their signature strings ("sig|sig|…") would. Equal leading
// classes are skipped and the first differing pair of step signatures
// decides, unless one is a prefix of the other: then the shorter one's
// '|' meets the longer one's next byte, and the strings are built.
func (g *generator) signatureLess(a, b *candidate) bool {
	i := firstDifference(a, b)
	if i == a.idLen() || i == b.idLen() {
		return a.idLen() < b.idLen()
	}
	sa, sb := g.sig(a.class(i)), g.sig(b.class(i))
	if !strings.HasPrefix(sa, sb) && !strings.HasPrefix(sb, sa) {
		return sa < sb
	}
	return g.signatureFrom(a, i) < g.signatureFrom(b, i)
}

// sig returns the signature string of a class.
func (g *generator) sig(class uint32) string {
	if int(class) >= len(g.sigs) {
		g.sigs = append(g.sigs, make([]string, int(class)+1-len(g.sigs))...)
	}
	if g.sigs[class] == "" {
		g.sigs[class] = g.table.signature(class)
	}
	return g.sigs[class]
}

// signatureFrom expands a candidate's id, from byte offset i on, into
// the signature string of its steps.
func (g *generator) signatureFrom(c *candidate, i int) string {
	var b strings.Builder
	for ; i < c.idLen(); i += 4 {
		b.WriteString(g.sig(c.class(i)))
		b.WriteByte('|')
	}
	return b.String()
}

// orientedChains appends the candidates for one orientation of a query.
func (g *generator) orientedChains(out []candidate, q *workload.Query) []candidate {
	if len(q.Order) == 0 {
		chains := g.chains(q, newChainMemo())
		if q.Limit == 0 {
			return appendWhole(out, chains)
		}
		return g.withTail(out, chains, g.table.limit(q.Limit))
	}

	// Plans whose single lookup serves the ordering via clustering.
	firsts := g.segmentVariants(enumerator.PrefixQuery(q, 0), q.Order)
	if q.Limit == 0 {
		out = appendWhole(out, firsts)
	} else {
		limit := g.chainOf(g.table.limit(q.Limit))
		for i := range firsts {
			c := &firsts[i]
			if ls, ok := c.steps[0].(*LookupStep); ok && len(c.steps) == 1 {
				// The get itself stops at the limit, which changes what
				// it fetches: another step — the segment's is shared,
				// with statements that have no limit too — costed again.
				limited := *ls
				limited.Limit = q.Limit
				lc := g.chainOf(g.table.lookupStep(&limited))
				out = append(out, whole(&lc))
			} else {
				out = append(out, g.join(c, &limit))
			}
		}
	}
	// Plans that sort client-side over the order-relaxed query.
	tail := []interned{g.table.sort(q.Order)}
	if q.Limit > 0 {
		tail = append(tail, g.table.limit(q.Limit))
	}
	return g.withTail(out, g.chains(enumerator.RelaxOrder(q), newChainMemo()), tail...)
}

// withTail appends every chain extended by the same trailing steps.
func (g *generator) withTail(out []candidate, chains []chain, steps ...interned) []candidate {
	tail := g.chainOf(steps...)
	for i := range chains {
		out = append(out, g.join(&chains[i], &tail))
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
// returned chains are shared through the memo.
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

	var out []candidate
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
			out = appendWhole(out, firsts)
			continue
		}
		if len(firsts) == 0 {
			continue
		}
		rems := g.chains(enumerator.RemainderQuery(q, s), memo)
		g.counts.ChainsJoined += int64(len(firsts) * len(rems))
		out = slices.Grow(out, len(firsts)*len(rems))
		for f := range firsts {
			for r := range rems {
				out = append(out, g.join(&firsts[f], &rems[r]))
			}
		}
	}
	kept := g.pruneChains(out)
	memo.done[sig] = kept
	return kept
}

// pruneChains bounds the chain set of one (sub)query with a beam:
// duplicates are removed and only the cheapest chains are kept, at a
// width comfortably above the final plan-space cap. Without this, the
// cartesian combination of per-segment variants across decomposition
// points grows multiplicatively with path length. A set already within
// the beam is kept as generated. Only what is kept gets built; the
// candidate array, many times the beam, goes to the next chains call.
func (g *generator) pruneChains(out []candidate) []chain {
	kept := out
	if limit := 4 * g.cfg.MaxPlansPerQuery; len(out) > limit {
		kept = g.cheapest(out, limit)
	}
	chains := make([]chain, len(kept))
	for i := range kept {
		chains[i] = kept[i].chain()
	}
	g.free = append(g.free, out[:0])
	return chains
}

// segment is one memoised segmentVariants result.
type segment struct {
	once   sync.Once
	chains []chain
}

// segmentVariants returns every single-lookup realization of a prefix
// query: one per (relaxation, usable column family) combination, each a
// lookup optionally followed by enrichment lookups and a filter. The
// planner generates them once per distinct (query, parameter names,
// ordering) — a worker that asks while another generates waits — and
// the chains returned are shared: read-only, steps included.
func (g *generator) segmentVariants(pq *workload.Query, order []workload.AttrRef) []chain {
	g.counts.SegmentRequests++
	key := segmentKey(pq, order)
	g.mu.Lock()
	seg := g.segments[key]
	if seg == nil {
		seg = &segment{}
		g.segments[key] = seg
	}
	g.mu.Unlock()
	seg.once.Do(func() { seg.chains = g.generateSegment(pq, order) })
	return seg.chains
}

// segmentKey identifies what segmentVariants' result depends on: the
// query's structure and, because the steps carry them, each
// predicate's parameter name and path position.
func segmentKey(pq *workload.Query, order []workload.AttrRef) string {
	var buf [256]byte
	b := append(buf[:0], enumerator.QuerySignature(pq)...)
	for _, pr := range pq.Where {
		b = append(b, 0)
		b = append(b, pr.Param...)
		b = append(b, 0)
		b = strconv.AppendInt(b, int64(pr.Ref.Index), 10)
	}
	b = append(b, 0, 0)
	for _, o := range order {
		b = append(b, o.Attr.QualifiedName()...)
		b = append(b, 0)
	}
	return string(b)
}

func (g *generator) generateSegment(pq *workload.Query, order []workload.AttrRef) []chain {
	out := g.segBuf[:0]
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
		out = g.lookupVariants(out, rq, removed, order)
	}
	g.segBuf = out
	return slices.Clone(out)
}

// lookupVariants appends to out the step sequences answering rq with
// one lookup per usable column family: the partition key must equal the
// equality predicate attributes, selected entity keys must be stored,
// ordering (when required) must be served by a clustering prefix, and
// any needed attribute the family lacks is fetched by an id-keyed
// enrichment lookup. Removed and unpushed range predicates become
// client-side filters.
func (g *generator) lookupVariants(out []chain, rq *workload.Query, removed []workload.Predicate, order []workload.AttrRef) []chain {
	eq := rq.EqualityPredicates()
	rangePreds := rq.RangePredicates()

	// Attributes that must be available beyond the keys whichever
	// family answers: non-key outputs and relaxed predicate attributes.
	var keyOut, needed []*model.Attribute
	for _, s := range rq.Select {
		if s.Attr.IsKey() {
			keyOut = append(keyOut, s.Attr)
		} else if !slices.Contains(needed, s.Attr) {
			needed = append(needed, s.Attr)
		}
	}
	for _, pr := range removed {
		if !slices.Contains(needed, pr.Ref.Attr) {
			needed = append(needed, pr.Ref.Attr)
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
	eqList := g.table.list(boundEq)

	// A family differs from the next only in which range predicate it
	// pushes — none, or the one on its first clustering column — so what
	// follows the lookup is one of len(rangePreds)+1 shapes, each worked
	// out when the first family needs it.
	shapes := make([]variantShape, len(rangePreds)+1)

	for _, cf := range g.candidatesFor(predAttrs(eq)) {
		g.counts.CandidatesExamined++
		if !pathCoversSegment(cf.Path, rq.Path) {
			continue
		}
		if !cf.ContainsAll(keyOut) {
			continue
		}
		if len(order) > 0 && !clusteringPrefixMatches(cf, order) {
			continue
		}

		// Push at most one range predicate: its attribute must be the
		// first clustering column so the get's clustering range stays
		// contiguous. When ordering is served this still holds only if
		// the ordering attribute is the range attribute itself.
		push := -1
		if len(cf.Clustering) > 0 {
			for i := range rangePreds {
				if rangePreds[i].Ref.Attr == cf.Clustering[0] {
					push = i
					break
				}
			}
		}
		sh := &shapes[push+1]
		if !sh.built {
			*sh = g.variantShape(rangePreds, push, needed, removed)
		}

		missing, ok := g.missing[:0], true
		for _, a := range sh.needed {
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
		g.missing = missing
		if !ok {
			continue
		}
		// The lookup goes first, but is interned only once the
		// enrichment it needs is known to exist.
		variant, ok := g.enrichment(append(g.variant[:0], interned{}), missing)
		g.variant = variant
		if !ok {
			continue
		}
		variant[0] = g.table.lookup(&LookupStep{
			Index:          cf,
			EqPredicates:   boundEq,
			JoinKey:        joinKey,
			RangePredicate: sh.pushed,
			ServesOrder:    len(order) > 0,
		}, eqList, sh.pushedList)
		if sh.filter.Step != nil {
			variant = append(variant, sh.filter)
			g.variant = variant
		}
		out = append(out, g.chainOf(variant...))
	}
	return out
}

// variantShape is what a lookup variant has besides its family, given
// which range predicate the family pushes.
type variantShape struct {
	built bool
	// pushed is the predicate taken into the get's clustering range,
	// nil when there is none, and pushedList its list number.
	pushed     *workload.Predicate
	pushedList uint32
	// needed lists the attributes the family or an enrichment lookup
	// must supply: the query's, then those of the unpushed range
	// predicates.
	needed []*model.Attribute
	// filter applies the removed and unpushed range predicates
	// client-side; its step is nil when there are none.
	filter interned
}

// variantShape works out the shape for pushing rangePreds[push], or
// nothing when push is -1.
func (g *generator) variantShape(rangePreds []workload.Predicate, push int, needed []*model.Attribute, removed []workload.Predicate) variantShape {
	sh := variantShape{built: true, needed: slices.Grow(needed[:len(needed):len(needed)], len(rangePreds))}
	filters := append(make([]workload.Predicate, 0, len(removed)+len(rangePreds)), removed...)
	for i := range rangePreds {
		if i == push {
			sh.pushed = &rangePreds[i]
			sh.pushedList = g.table.list(rangePreds[i : i+1])
			continue
		}
		filters = append(filters, rangePreds[i])
		if a := rangePreds[i].Ref.Attr; !slices.Contains(sh.needed, a) {
			sh.needed = append(sh.needed, a)
		}
	}
	if len(filters) > 0 {
		sh.filter = g.table.filter(filters)
	}
	return sh
}

// enrichment appends to variant the id-keyed lookups supplying the
// missing attributes, one per entity in order of first appearance. It
// reports failure when some entity has no id-keyed family in the pool
// storing all of its missing attributes.
func (g *generator) enrichment(variant []interned, missing []*model.Attribute) ([]interned, bool) {
next:
	for i, a := range missing {
		for _, b := range missing[:i] {
			if b.Entity == a.Entity {
				continue next
			}
		}
		group := g.group[:0]
		for _, b := range missing[i:] {
			if b.Entity == a.Entity {
				group = append(group, b)
			}
		}
		g.group = group
		st := g.enrichStep(a.Entity, group)
		if st.Step == nil {
			return variant, false
		}
		variant = append(variant, st)
	}
	return variant, true
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
	if !cfPath.Contains(segment.Start) {
		return false
	}
	for _, se := range segment.Edges {
		if !cfPath.Contains(se.To) {
			return false
		}
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
