package enumerator

import (
	"fmt"
	"sync"

	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

// Pool is the candidate column family pool built up during enumeration.
// Structurally identical candidates are stored once.
type Pool struct {
	s *schema.Schema
}

// NewPool returns an empty candidate pool.
func NewPool() *Pool { return &Pool{s: schema.NewSchema()} }

// Add validates and inserts a candidate, returning the pool's canonical
// instance. Invalid candidates are rejected with an error.
func (p *Pool) Add(x *schema.Index) (*schema.Index, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	return p.s.Add(x), nil
}

// add inserts a candidate that is valid by construction.
func (p *Pool) add(x *schema.Index) *schema.Index {
	got, err := p.Add(x)
	if err != nil {
		panic(fmt.Sprintf("enumerator: generated invalid candidate: %v", err))
	}
	return got
}

// merge absorbs one workload item's candidates in their first-occurrence
// order. They are a run's canonical instances, validated when interned
// and still unnamed unless already pooled, so the pool numbers them by
// its own insertion sequence — this is what keeps parallel
// enumeration's naming byte-identical to a serial run.
func (p *Pool) merge(item []*schema.Index) {
	for _, x := range item {
		p.s.Add(x)
	}
}

// Indexes returns the pool's candidates in insertion order.
func (p *Pool) Indexes() []*schema.Index { return p.s.Indexes() }

// Len returns the number of distinct candidates.
func (p *Pool) Len() int { return p.s.Len() }

// run is the state of one enumeration (one EnumerateWorkloadCtx
// call), shared by its workers: the canonical instance of
// every candidate structure generated so far, and the memos of the two
// pure functions of Algorithm 1. A workload asks for the same
// enumeration over and over — every (update, candidate) pair poses
// support queries, and most pose ones already seen — so each distinct
// QuerySignature is enumerated exactly once, by whichever worker asks
// first, and replayed as a list of pointers. The run dies with the call.
type run struct {
	feats Features

	// byID interns candidates: one validated, unnamed *schema.Index per
	// structure, so the memoised lists and every worker's item compare
	// and dedupe by pointer.
	mu   sync.Mutex
	byID map[string]*schema.Index

	// views memoises wholeQueryCandidates by prefix-query signature.
	views memo
	// queries memoises top-level enumeration (both orientations, one
	// visited set) by query signature.
	queries memo
}

func newRun(feats Features) *run {
	return &run{
		feats:   feats,
		byID:    map[string]*schema.Index{},
		views:   memo{m: map[string]*memoEntry{}},
		queries: memo{m: map[string]*memoEntry{}},
	}
}

// memo holds one list per signature. The first worker to ask for a
// signature computes its list; one that asks meanwhile waits for it
// rather than computing a second copy, so the work a run does — and
// with it the time and memory — does not depend on how its workers
// interleave. Neither memoised function calls back into its own memo
// (enumerate is the top level, wholeQueryCandidates only interns), so a
// waiter never waits on itself.
type memo struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}

type memoEntry struct {
	once sync.Once
	list []*schema.Index
}

func (m *memo) entry(sig string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.m[sig]
	if e == nil {
		e = &memoEntry{}
		m.m[sig] = e
	}
	return e
}

// intern returns the run's canonical instance of a freshly built
// candidate, validating it if it is the first of its structure.
func (r *run) intern(x *schema.Index) *schema.Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	if first, ok := r.byID[x.ID()]; ok {
		return first
	}
	if err := x.Validate(); err != nil {
		panic(fmt.Sprintf("enumerator: generated invalid candidate: %v", err))
	}
	r.byID[x.ID()] = x
	return x
}

// candidates is an ordered set of canonical instances: what one query,
// or one workload item, contributes, in first-occurrence order.
type candidates struct {
	list []*schema.Index
	seen map[*schema.Index]struct{}
}

func (c *candidates) add(xs ...*schema.Index) {
	if c.seen == nil {
		c.seen = make(map[*schema.Index]struct{}, len(xs))
	}
	for _, x := range xs {
		if _, dup := c.seen[x]; !dup {
			c.seen[x] = struct{}{}
			c.list = append(c.list, x)
		}
	}
}

// union returns the lists' candidates in first-occurrence order. A
// single list is returned as it is, not copied.
func union(lists [][]*schema.Index) []*schema.Index {
	if len(lists) == 1 {
		return lists[0]
	}
	var out candidates
	for _, list := range lists {
		out.add(list...)
	}
	return out.list
}

// enumerate returns Enumerate(q) as an ordered list of distinct
// canonical candidates, computing it on the first request for q's
// signature. Callers must not modify the list.
//
// Only this top level is memoised, not the recursion below it. What
// decompose contributes for a sub-query depends on where the walk
// stands: the visited set skips sub-queries an earlier sibling already
// finished and, since decomposing at the far end reproduces the
// parent's signature, ones still in progress. A list recorded for a
// sub-query in one walk is therefore short of candidates in another
// (or, recorded stand-alone, inserts candidates earlier than the
// depth-first walk does), and pool order assigns the cfN names, so it
// must not move. A whole walk from an empty visited set is a pure
// function of the signature.
func (r *run) enumerate(q *workload.Query) ([]*schema.Index, error) {
	if len(q.EqualityPredicates()) == 0 {
		return nil, fmt.Errorf("enumerator: query %q has no equality predicate; no valid get request can anchor it", workload.Label(q))
	}
	e := r.queries.entry(QuerySignature(q))
	e.once.Do(func() {
		var out candidates
		visited := map[string]bool{}
		r.decompose(&out, q, visited)
		if !r.feats.SkipReverse {
			r.decompose(&out, ReverseQuery(q), visited)
		}
		e.list = out.list
	})
	return e.list, nil
}

// decompose splits q at every path position. The visited set records
// sub-queries by structural signature: decomposing at the far end of
// the path produces a remainder structurally identical to its parent
// (only the predicate at the end changes to an id equality), which
// would otherwise recurse forever.
func (r *run) decompose(out *candidates, q *workload.Query, visited map[string]bool) {
	sig := QuerySignature(q)
	if visited[sig] {
		return
	}
	visited[sig] = true
	n := q.Path.Len() - 1
	for s := 0; s <= n; s++ {
		prefix := PrefixQuery(q, s)
		if len(prefix.EqualityPredicates()) > 0 {
			out.add(r.wholeQueryCandidates(prefix)...)
		}
		if s > 0 {
			r.decompose(out, RemainderQuery(q, s), visited)
		}
	}
}

// QuerySignature canonicalizes a query for memoization: the path, the
// selected attributes, and the predicates with parameter names ignored
// (two sub-queries differing only in parameter naming decompose
// identically).
func QuerySignature(q *workload.Query) string {
	var buf [256]byte
	b := buf[:0]
	b = append(b, q.Path.String()...)
	b = append(b, '/')
	for _, s := range q.Select {
		b = append(b, s.Attr.QualifiedName()...)
		b = append(b, ',')
	}
	b = append(b, '/')
	for _, p := range q.Where {
		b = append(b, p.Ref.Attr.QualifiedName()...)
		b = append(b, p.Op.String()...)
		b = append(b, ';')
	}
	b = append(b, '/')
	for _, o := range q.Order {
		b = append(b, o.Attr.QualifiedName()...)
		b = append(b, ',')
	}
	return string(b)
}

// wholeQueryCandidates returns the candidates for answering pq with a
// single get plus client-side steps — the materialized view, the
// key-only and id-to-attribute splits, and all relaxed variants — as an
// ordered list of distinct canonical instances, computed on the first
// request for pq's signature.
func (r *run) wholeQueryCandidates(pq *workload.Query) []*schema.Index {
	e := r.views.entry(QuerySignature(pq))
	e.once.Do(func() { e.list = r.viewFamilies(pq) })
	return e.list
}

// viewFamilies computes wholeQueryCandidates.
func (r *run) viewFamilies(pq *workload.Query) []*schema.Index {
	var out candidates
	r.addViewFamily(&out, pq)

	// Predicate relaxation: every non-empty subset of the relaxable
	// predicates may be removed, provided at least one equality
	// predicate remains (paper §IV-A2).
	relaxable := RelaxablePredicates(pq)
	variants := []*workload.Query{pq}
	if len(pq.Order) > 0 {
		variants = append(variants, RelaxOrder(pq))
	}
	for _, base := range variants {
		for mask := 1; mask < 1<<len(relaxable); mask++ {
			var removed []workload.Predicate
			for i, p := range relaxable {
				if mask&(1<<i) != 0 {
					removed = append(removed, p)
				}
			}
			relaxed := RelaxQuery(base, removed)
			if len(relaxed.EqualityPredicates()) == 0 {
				continue
			}
			r.addViewFamily(&out, relaxed)
		}
		if base != pq {
			r.addViewFamily(&out, base)
		}
	}
	return out.list
}

// addViewFamily adds the materialized view of pq plus its split
// variants.
func (r *run) addViewFamily(out *candidates, pq *workload.Query) {
	mv := MaterializedView(pq)
	if mv == nil {
		return
	}
	out.add(r.intern(mv))
	if ko := KeyOnlyView(mv); ko != nil {
		out.add(r.intern(ko))
	}
	for _, iv := range IDViews(pq) {
		out.add(r.intern(iv))
	}
}

// Combine supplements the pool with candidates merged from compatible
// pairs (paper §IV-A3): two candidates with the same path and partition
// key, no clustering key, and different value sets yield a merged
// candidate with the union of their values. The full union of each
// compatible group is added as well.
func Combine(pool *Pool) {
	type groupKey struct {
		path      string
		partition string
	}
	groups := map[groupKey][]*schema.Index{}
	var order []groupKey
	for _, x := range pool.Indexes() {
		if len(x.Clustering) != 0 {
			continue
		}
		k := groupKey{path: x.Path.String(), partition: attrSetKey(x.Partition)}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], x)
	}
	for _, k := range order {
		members := groups[k]
		if len(members) < 2 {
			continue
		}
		// Pairwise unions.
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				pool.add(mergeValues(members[i], members[j]))
			}
		}
		// Full-group union.
		merged := members[0]
		for _, m := range members[1:] {
			merged = mergeValues(merged, m)
		}
		pool.add(merged)
	}
}

func mergeValues(a, b *schema.Index) *schema.Index {
	seen := map[*model.Attribute]bool{}
	var values []*model.Attribute
	for _, v := range append(append([]*model.Attribute{}, a.Values...), b.Values...) {
		if !seen[v] {
			seen[v] = true
			values = append(values, v)
		}
	}
	return schema.New(a.Path, a.Partition, nil, values)
}

func attrSetKey(attrs []*model.Attribute) string {
	// Partition attribute order is canonical after schema.New.
	s := ""
	for _, a := range attrs {
		s += a.QualifiedName() + "|"
	}
	return s
}
