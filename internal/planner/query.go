package planner

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
	if !q.HasEquality() {
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
		plans[i] = &Plan{Query: q, Steps: c.steps, Cost: c.cost.total, Rows: c.cost.rows, indexes: stepIndexes(c.steps)}
	}
	return &PlanSpace{Query: q, Plans: plans}, nil
}

// generator is the state of one PlanQuery call: the planner, working
// memory borrowed from it, and what the call has counted, which is added
// to the planner's counters when the call ends.
type generator struct {
	*Planner
	*scratch
	segmentRequests, stepRequests, examined, joined int64
}

// scratch is what generation would otherwise allocate and discard per
// chains, cheapest or lookupVariants call. A generator borrows one from
// its planner for the length of the call; nothing in it outlives a call
// as data, so which one a call gets changes no result.
type scratch struct {
	// blocks hold the chain lists chains memoises, carved one after
	// another (see carve) and reset when the call ends: no list outlives
	// its PlanQuery call, since a plan copies its chain's header and
	// steps are on the heap. blocks[block] is being carved.
	blocks [][]chain
	block  int
	// seen and costs are dedupe's duplicate set and cut's cost column.
	seen  []seenSlot
	costs []float64
	// free holds the beam buffers finished chains calls have handed
	// back: a stack, since chains recurses while its own beam is live.
	free [][]candidate
	// raw is PlanQuery's candidate array and segBuf the array a segment
	// is generated in before it is copied out at its final size.
	raw    []candidate
	segBuf []chain
	// sigs holds the signature strings sig has fetched from the step
	// table, by class, so that ordering chains seldom takes its lock.
	sigs []string
	// keyOut, needed, partition, boundEq, rangePreds and shapes are
	// lookupVariants' per-query lists, shapeAttrs and filters its
	// shapes' attributes and predicates, and missing, group and variant
	// its per-family lists. The step table copies what a step keeps.
	keyOut, needed, partition []*model.Attribute
	boundEq, rangePreds       []workload.Predicate
	shapes                    []variantShape
	shapeAttrs                []*model.Attribute
	filters                   []workload.Predicate
	missing, group            []*model.Attribute
	variant                   []interned
	// sub builds chains' sub-queries, key holds a signature or segment
	// key while it is looked up, and removed is generateSegment's
	// relaxation.
	sub     enumerator.SubQueries
	key     []byte
	removed []workload.Predicate
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

// release returns the generator's scratch to the planner and adds its
// counts to the planner's counters.
func (g *generator) release() {
	g.count.segmentRequests.Add(g.segmentRequests)
	g.count.stepRequests.Add(g.stepRequests)
	g.count.examined.Add(g.examined)
	g.count.joined.Add(g.joined)
	for i, b := range g.blocks {
		clear(b)
		g.blocks[i] = b[:0]
	}
	g.block = 0
	g.mu.Lock()
	g.idle = append(g.idle, g.scratch)
	g.mu.Unlock()
}

// carve returns a list of n chains from the scratch's blocks: the rest
// of the block being carved when n fit there, else the next block with
// room, else a new one, at least twice the size of the last. The blocks
// thus grow to what the calls a scratch serves demand, and then a call
// allocates no chain list.
func (sc *scratch) carve(n int) []chain {
	if n == 0 {
		return nil
	}
	for ; sc.block < len(sc.blocks); sc.block++ {
		if b := sc.blocks[sc.block]; len(b)+n <= cap(b) {
			sc.blocks[sc.block] = b[:len(b)+n]
			return b[len(b) : len(b)+n : len(b)+n]
		}
	}
	size := n
	if k := len(sc.blocks); k > 0 {
		size = max(n, 2*cap(sc.blocks[k-1]))
	}
	b := make([]chain, n, size)
	sc.blocks = append(sc.blocks, b)
	return b[:n:n]
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
	// cost is the costing fold's state after the last step.
	cost costState
}

// chainOf costs a sequence of interned steps from scratch.
func (g *generator) chainOf(sts ...interned) chain {
	g.stepRequests += int64(len(sts))
	steps := make([]Step, len(sts))
	var buf [32]byte // most chains are a handful of steps: one allocation, for the string
	id := buf[:0]
	for i, st := range sts {
		steps[i] = st.Step
		id = binary.BigEndian.AppendUint32(id, st.class)
	}
	return chain{steps: steps, id: string(id), cost: g.fold(costState{}, steps)}
}

// hash returns an FNV-1a hash of the candidate's id.
func (c *candidate) hash() uint64 {
	h := hashID(14695981039346656037, c.head.id)
	if c.tail != nil {
		h = hashID(h, c.tail.id)
	}
	return h
}

// hashID continues an FNV-1a hash over the bytes of a chain id.
func hashID(h uint64, id string) uint64 {
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return h
}

// whole returns c as a candidate.
func whole(c *chain) candidate {
	return candidate{head: c, cost: c.cost}
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
	return candidate{head: f, tail: r, cost: g.fold(f.cost, r.steps)}
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
	kept, _ := g.cut(g.dedupe(cs), limit)
	slices.SortFunc(kept, g.compare)
	return kept
}

// dedupe removes duplicate candidates in place, keeping the first of
// each id, and returns the rest in their order.
func (g *generator) dedupe(cs []candidate) []candidate {
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
		c, hash := cs[i], cs[i].hash()
		for h := (hash * 0x9e3779b97f4a7c15) >> (64 - bits); ; h = (h + 1) & mask {
			sl := &seen[h]
			if sl.at == 0 {
				*sl = seenSlot{hash: hash, at: int32(len(uniq)) + 1}
				break
			}
			if sl.hash == hash && sameID(&uniq[sl.at-1], &c) {
				continue next
			}
		}
		uniq = append(uniq, c)
	}
	return uniq
}

// cut reorders candidates of distinct ids so that the first limit are
// the limit cheapest, by cost and then by signature, and returns those
// — in no particular order — with the cost of the costliest. Candidates
// outnumber the survivors many times over, and the signature tie-break
// is the expensive comparison: the cost at the cut is found by
// quickselect, and only the candidates tied at it are ordered. When cs
// holds no more than limit, it is returned whole with an infinite cost.
func (g *generator) cut(cs []candidate, limit int) ([]candidate, float64) {
	if len(cs) <= limit {
		return cs, math.Inf(1)
	}
	costs := g.costs[:0]
	for i := range cs {
		costs = append(costs, cs[i].cost.total)
	}
	g.costs = costs
	bound := nthSmallest(costs, limit-1)
	// Partition into cs[:lt] cheaper than the bound, cs[lt:gt] equal to
	// it and cs[gt:] costlier; lt < limit <= gt.
	lt, gt := 0, len(cs)
	for i := 0; i < gt; {
		switch x := cs[i].cost.total; {
		case costLess(x, bound):
			cs[lt], cs[i] = cs[i], cs[lt]
			lt++
			i++
		case costLess(bound, x):
			gt--
			cs[i], cs[gt] = cs[gt], cs[i]
		default:
			i++
		}
	}
	if gt > limit {
		slices.SortFunc(cs[lt:gt], g.compare)
	}
	return cs[:limit], bound
}

// compare orders candidates of distinct ids by cost, NaNs first, then
// by signature.
func (g *generator) compare(a, b candidate) int {
	switch {
	case costLess(a.cost.total, b.cost.total):
		return -1
	case costLess(b.cost.total, a.cost.total):
		return 1
	case g.signatureLess(&a, &b):
		return -1
	}
	return 1
}

// seenSlot is one slot of dedupe's duplicate set: a candidate's hash
// and 1 + its index among the kept candidates, 0 for an empty slot.
type seenSlot struct {
	hash uint64
	at   int32
}

// costLess is sort.Float64s' order: NaNs first.
func costLess(a, b float64) bool { return a < b || (a != a && b == b) }

// nthSmallest returns the value sort.Float64s would leave at xs[n] — the
// n-th smallest, NaNs first — by quickselect, reordering xs.
func nthSmallest(xs []float64, n int) float64 {
	less := costLess
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
// decides. When one of the two is a prefix of the other, the shorter
// one's '|' meets the longer one's next byte, which is not '|': no
// signature contains it.
func (g *generator) signatureLess(a, b *candidate) bool {
	i := firstDifference(a, b)
	if i == a.idLen() || i == b.idLen() {
		return a.idLen() < b.idLen()
	}
	sa, sb := g.sig(a.class(i)), g.sig(b.class(i))
	switch {
	case len(sa) < len(sb) && sb[:len(sa)] == sa:
		return '|' < sb[len(sa)]
	case len(sb) < len(sa) && sa[:len(sb)] == sb:
		return sa[len(sb)] < '|'
	}
	return sa < sb
}

// sig returns the signature string of a class.
func (g *generator) sig(class uint32) string {
	if int(class) >= len(g.sigs) {
		n := max(int(class)+1, classesFor(g.pool.Len()))
		g.sigs = append(g.sigs, make([]string, n-len(g.sigs))...)
	}
	if g.sigs[class] == "" {
		g.sigs[class] = g.table.signature(class)
	}
	return g.sigs[class]
}

// orientedChains appends the candidates for one orientation of a query.
func (g *generator) orientedChains(out []candidate, q *workload.Query) []candidate {
	if len(q.Order) == 0 {
		chains := g.chains(q, newChainMemo(), 0)
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
	return g.withTail(out, g.chains(enumerator.RelaxOrder(q), newChainMemo(), 0), tail...)
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
// query concatenated with every chain of the remainder query, offered
// to a beam. The returned chains are shared through the memo. depth is
// q's recursion depth, which picks the storage its sub-queries are
// built in.
func (g *generator) chains(q *workload.Query, memo *chainMemo, depth int) []chain {
	g.key = enumerator.AppendSignature(g.key[:0], q)
	if res, ok := memo.done[string(g.key)]; ok {
		return res
	}
	if memo.inProgress[string(g.key)] {
		return nil
	}
	sig := string(g.key)
	memo.inProgress[sig] = true
	defer func() { memo.inProgress[sig] = false }()

	b := g.newBeam()
	n := q.Path.Len() - 1
	for s := 0; s <= n; s++ {
		prefix := g.sub.Prefix(depth, q, s)
		if !prefix.HasEquality() {
			continue
		}
		firsts := g.segmentVariants(prefix, nil)
		if s == 0 {
			for i := range firsts {
				b.add(whole(&firsts[i]))
			}
			continue
		}
		if len(firsts) == 0 {
			continue
		}
		rems := g.chains(g.sub.Remainder(depth, q, s), memo, depth+1)
		g.joined += int64(len(firsts) * len(rems))
		for f := range firsts {
			for r := range rems {
				b.add(g.join(&firsts[f], &rems[r]))
			}
		}
	}
	kept := b.finish()
	chains := g.carve(len(kept))
	for i := range kept {
		chains[i] = kept[i].chain()
	}
	g.free = append(g.free, b.buf[:0])
	memo.done[sig] = chains
	return chains
}

// beam bounds the chain set of one (sub)query: duplicates are removed
// and only the width cheapest chains are kept, at a width comfortably
// above the final plan-space cap. Without this, the cartesian
// combination of per-segment variants across decomposition points grows
// multiplicatively with path length. A set that never exceeds the width
// is kept as generated, duplicates included; a larger one is exactly
// cheapest over everything offered, in beamSlack times the width.
//
// Candidates are stored as offered. When the buffer fills, the beam
// compacts: it dedupes, keeping the first of each id, and cuts to the
// width. From the first cut on, a candidate costlier than the costliest
// kept one cannot be among the width cheapest and is dropped unstored.
// A duplicate of a candidate an earlier compaction cut is dropped too,
// by the same bound or the next cut, because duplicates cost the same:
// a chain's id fixes every step property its costing reads. (A
// LookupStep's Limit does not, but chains never sets one.)
type beam struct {
	g     *generator
	width int
	buf   []candidate
	// compacted records that the buffer has filled; bound is the cost
	// of the costliest candidate kept by the last cut, +Inf before one.
	compacted bool
	bound     float64
}

// beamSlack is how many times its width a beam's buffer holds.
const beamSlack = 4

// newBeam returns an empty beam over a candidate buffer the
// generator's earlier chains calls have handed back.
func (g *generator) newBeam() beam {
	b := beam{g: g, width: 4 * g.cfg.MaxPlansPerQuery, bound: math.Inf(1)}
	if n := len(g.free); n > 0 {
		b.buf, g.free = g.free[n-1], g.free[:n-1]
	}
	return b
}

// add offers a candidate, which the beam drops unstored when it is
// costlier than the costliest kept by a cut.
func (b *beam) add(c candidate) {
	if c.cost.total > b.bound {
		return
	}
	b.buf = append(b.buf, c)
	if len(b.buf) == beamSlack*b.width {
		kept, bound := b.g.cut(b.g.dedupe(b.buf), b.width)
		b.buf, b.compacted, b.bound = b.buf[:len(kept)], true, bound
	}
}

// finish returns what the beam keeps: the candidates as offered when
// there were no more than its width, else the width cheapest ordered by
// cost and then by signature.
func (b *beam) finish() []candidate {
	if !b.compacted && len(b.buf) <= b.width {
		return b.buf
	}
	return b.g.cheapest(b.buf, b.width)
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
	g.segmentRequests++
	g.key = segmentKey(g.key[:0], pq, order)
	g.mu.Lock()
	seg := g.segments[string(g.key)]
	if seg == nil {
		seg = &segment{}
		g.segments[string(g.key)] = seg
		g.count.segments.Inc()
	}
	g.mu.Unlock()
	seg.once.Do(func() { seg.chains = g.generateSegment(pq, order) })
	return seg.chains
}

// segmentKey appends to b what segmentVariants' result depends on: the
// query's signature (its structure, path positions included) and,
// because the steps carry them, each predicate's parameter name.
func segmentKey(b []byte, pq *workload.Query, order []workload.AttrRef) []byte {
	b = enumerator.AppendSignature(b, pq)
	for _, pr := range pq.Where {
		b = append(b, 0)
		b = append(b, pr.Param...)
	}
	b = append(b, 0, 0)
	for _, o := range order {
		b = append(b, o.Attr.QualifiedName()...)
		b = append(b, 0)
	}
	return b
}

func (g *generator) generateSegment(pq *workload.Query, order []workload.AttrRef) []chain {
	out := g.segBuf[:0]
	relaxable := enumerator.RelaxablePredicates(pq)
	if g.cfg.SkipRelaxation {
		relaxable = nil
	}
	for mask := 0; mask < 1<<uint(len(relaxable)); mask++ {
		removed := g.removed[:0]
		for i, pr := range relaxable {
			if mask&(1<<uint(i)) != 0 {
				removed = append(removed, pr)
			}
		}
		g.removed = removed
		rq := pq
		if len(removed) > 0 {
			rq = g.sub.Relax(pq, removed)
		}
		if !rq.HasEquality() {
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
	rangePreds := g.rangePreds[:0]
	for _, pr := range rq.Where {
		if pr.Op.IsRange() {
			rangePreds = append(rangePreds, pr)
		}
	}
	g.rangePreds = rangePreds

	// Attributes that must be available beyond the keys whichever
	// family answers: non-key outputs and relaxed predicate attributes.
	keyOut, needed := g.keyOut[:0], g.needed[:0]
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

	// A family's partition key must be the equality attributes.
	partition, boundEq := g.partition[:0], g.boundEq[:0]
	var joinKey *model.Attribute
	for _, pr := range rq.Where {
		if pr.Op.IsRange() {
			continue
		}
		partition = append(partition, pr.Ref.Attr)
		if joinKey == nil && isJoinParam(pr.Param) {
			joinKey = pr.Ref.Attr
			continue
		}
		boundEq = append(boundEq, pr)
	}
	g.keyOut, g.needed, g.partition, g.boundEq = keyOut, needed, partition, boundEq
	eqList := g.table.list(boundEq)

	// A family differs from the next only in which range predicate it
	// pushes — none, or the one on its first clustering column — so what
	// follows the lookup is one of len(rangePreds)+1 shapes, each worked
	// out when the first family needs it.
	shapes := slices.Grow(g.shapes[:0], len(rangePreds)+1)[:len(rangePreds)+1]
	clear(shapes)
	g.shapes, g.shapeAttrs = shapes, g.shapeAttrs[:0]

	for _, cf := range g.candidatesFor(partition) {
		g.examined++
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
// nothing when push is -1. The shape's lists live in the generator's
// scratch until the next lookupVariants call.
func (g *generator) variantShape(rangePreds []workload.Predicate, push int, needed []*model.Attribute, removed []workload.Predicate) variantShape {
	sh := variantShape{built: true}
	start := len(g.shapeAttrs)
	attrs, filters := append(g.shapeAttrs, needed...), append(g.filters[:0], removed...)
	for i := range rangePreds {
		if i == push {
			sh.pushed = &rangePreds[i]
			sh.pushedList = g.table.list(rangePreds[i : i+1])
			continue
		}
		filters = append(filters, rangePreds[i])
		if a := rangePreds[i].Ref.Attr; !slices.Contains(attrs[start:], a) {
			attrs = append(attrs, a)
		}
	}
	sh.needed = attrs[start:]
	g.shapeAttrs, g.filters = attrs, filters
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
