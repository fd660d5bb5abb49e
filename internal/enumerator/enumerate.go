package enumerator

import (
	"fmt"
	"slices"
	"strconv"

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

// Indexes returns the pool's candidates in insertion order.
func (p *Pool) Indexes() []*schema.Index { return p.s.Indexes() }

// Len returns the number of distinct candidates.
func (p *Pool) Len() int { return p.s.Len() }

// run is the state of one enumeration (one EnumerateWorkloadCtx call):
// the canonical instance of every candidate structure generated so far,
// the memos of the two pure functions of Algorithm 1, and the scratch
// its requests build keys, sub-queries and lists in. A workload asks
// for the same enumeration over and over — every (update, candidate)
// pair poses support queries, and most pose ones already seen — so each
// distinct query signature is enumerated exactly once and replayed as a
// list of pointers. The run dies with the call.
//
// Every key is built in a reused buffer and looked up as
// m[string(buf)], which allocates nothing; a key string is allocated
// only when an entry is first stored. Nothing in the scratch outlives a
// request as data; what a request keeps it copies out.
type run struct {
	feats Features

	// byID interns candidates by schema ID: one validated, unnamed
	// *schema.Index per structure, numbered in interning order, so the
	// memoised lists and every workload item compare and dedupe by
	// number.
	byID  map[string]*cand
	cands []cand

	// views memoises wholeQueryCandidates by prefix-query signature.
	views map[string][]*cand
	// queries memoises top-level enumeration (both orientations, one
	// visited set) by query signature.
	queries map[string][]*cand

	// sig and id are the signature and schema ID buffers.
	sig, id []byte
	// visited numbers the sub-query signatures the run's walks have
	// decomposed, and lastWalk holds, per number, the last walk that
	// did: a signature is visited in the walk in progress when that is
	// walks. Keys are allocated once per run, not once per walk.
	visited  map[string]int
	lastWalk []int
	walks    int
	// sub builds the walk's sub-queries.
	sub                SubQueries
	relaxable, removed []workload.Predicate
	// part, clust and vals are a view's key and values.
	part, clust, vals []*model.Attribute
	// walk and view collect one walk's and one view family's list.
	walk, view collector
}

// cand is an interned candidate with its run-local number.
type cand struct {
	x *schema.Index
	n int
}

func newRun(feats Features) *run {
	return &run{
		feats:   feats,
		byID:    map[string]*cand{},
		views:   map[string][]*cand{},
		queries: map[string][]*cand{},
		visited: map[string]int{},
	}
}

// intern returns the run's candidate for the structure (path,
// partition, clustering, values), building, validating and numbering
// it with schema.New if it is the first of its structure. partition and
// values are reordered canonically in place; path may be scratch, as a
// new candidate gets its own copy.
func (r *run) intern(path model.Path, partition, clustering, values []*model.Attribute) *cand {
	r.id = schema.AppendID(r.id[:0], path, partition, clustering, values)
	if c := r.byID[string(r.id)]; c != nil {
		return c
	}
	x := schema.New(model.Path{Start: path.Start, Edges: slices.Clone(path.Edges)}, partition, clustering, values)
	if err := x.Validate(); err != nil {
		panic(fmt.Sprintf("enumerator: generated invalid candidate: %v", err))
	}
	if len(r.cands) == cap(r.cands) {
		// A new block rather than a grown one: interned candidates are
		// referred to by pointer.
		r.cands = make([]cand, 0, 256)
	}
	r.cands = append(r.cands, cand{x: x, n: len(r.byID)})
	c := &r.cands[len(r.cands)-1]
	r.byID[x.ID()] = c
	return c
}

// collector gathers an ordered set of candidates — what one walk, one
// view family or one workload item contributes, in first-occurrence
// order — marking members by run-local number.
type collector struct {
	list []*cand
	in   []bool
}

func (c *collector) add(xs ...*cand) {
	for _, x := range xs {
		if c.mark(x) {
			c.list = append(c.list, x)
		}
	}
}

// mark marks x and reports whether it was unmarked.
func (c *collector) mark(x *cand) bool {
	if x.n >= len(c.in) {
		c.in = append(c.in, make([]bool, x.n+1-len(c.in))...)
	}
	if c.in[x.n] {
		return false
	}
	c.in[x.n] = true
	return true
}

// reset empties the collector for its next list.
func (c *collector) reset() {
	for _, x := range c.list {
		c.in[x.n] = false
	}
	c.list = c.list[:0]
}

// take returns a copy of the collected list and resets the collector.
func (c *collector) take() []*cand {
	out := slices.Clone(c.list)
	c.reset()
	return out
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
func (r *run) enumerate(q *workload.Query) ([]*cand, error) {
	if !q.HasEquality() {
		return nil, fmt.Errorf("enumerator: query %q has no equality predicate; no valid get request can anchor it", workload.Label(q))
	}
	r.sig = AppendSignature(r.sig[:0], q)
	if list, ok := r.queries[string(r.sig)]; ok {
		return list, nil
	}
	// decompose rewrites sig, so the key is taken before the walk.
	key := string(r.sig)
	r.walks++
	r.decompose(q, 0)
	if !r.feats.SkipReverse && len(q.Path.Edges) > 0 {
		r.decompose(r.sub.Reverse(q), 0)
	}
	list := r.walk.take()
	r.queries[key] = list
	return list, nil
}

// decompose splits q at every path position. The visited set records
// sub-queries by structural signature: decomposing at the far end of
// the path produces a remainder structurally identical to its parent
// (only the predicate at the end changes to an id equality), which
// would otherwise recurse forever. depth is q's recursion depth, which
// picks the scratch its own prefix and remainder queries are built in.
func (r *run) decompose(q *workload.Query, depth int) {
	r.sig = AppendSignature(r.sig[:0], q)
	v, ok := r.visited[string(r.sig)]
	if !ok {
		v = len(r.lastWalk)
		r.visited[string(r.sig)] = v
		r.lastWalk = append(r.lastWalk, 0)
	}
	if r.lastWalk[v] == r.walks {
		return
	}
	r.lastWalk[v] = r.walks
	n := q.Path.Len() - 1
	for s := 0; s <= n; s++ {
		if prefix := r.sub.Prefix(depth, q, s); prefix.HasEquality() {
			r.walk.add(r.wholeQueryCandidates(prefix)...)
		}
		if s > 0 {
			r.decompose(r.sub.Remainder(depth, q, s), depth+1)
		}
	}
}

// QuerySignature canonicalizes a query for memoization: AppendSignature
// as a string.
func QuerySignature(q *workload.Query) string {
	var buf [256]byte
	return string(AppendSignature(buf[:0], q))
}

// AppendSignature appends q's signature to b: the path, then the
// selected attributes, the predicates with their operators, and the
// ordering attributes, each attribute with its path position. Parameter
// names and the limit are left out (two sub-queries differing only in
// them decompose identically). The positions matter on a path that
// visits an entity twice, where one attribute can stand at two places.
func AppendSignature(b []byte, q *workload.Query) []byte {
	b = q.Path.AppendTo(b)
	b = append(b, '/')
	for _, s := range q.Select {
		b = appendRef(b, s)
		b = append(b, ',')
	}
	b = append(b, '/')
	for _, p := range q.Where {
		b = appendRef(b, p.Ref)
		b = append(b, p.Op.String()...)
		b = append(b, ';')
	}
	b = append(b, '/')
	for _, o := range q.Order {
		b = appendRef(b, o)
		b = append(b, ',')
	}
	return b
}

func appendRef(b []byte, r workload.AttrRef) []byte {
	b = strconv.AppendInt(b, int64(r.Index), 10)
	b = append(b, ':')
	return append(b, r.Attr.QualifiedName()...)
}

// wholeQueryCandidates returns the candidates for answering pq with a
// single get plus client-side steps — the materialized view, the
// key-only and id-to-attribute splits, and all relaxed variants — as an
// ordered list of distinct canonical instances, computed on the first
// request for pq's signature.
func (r *run) wholeQueryCandidates(pq *workload.Query) []*cand {
	r.sig = AppendSignature(r.sig[:0], pq)
	if list, ok := r.views[string(r.sig)]; ok {
		return list
	}
	key := string(r.sig)
	list := r.viewFamilies(pq)
	r.views[key] = list
	return list
}

// viewFamilies computes wholeQueryCandidates.
func (r *run) viewFamilies(pq *workload.Query) []*cand {
	r.addViewFamily(pq)

	// Predicate relaxation: every non-empty subset of the relaxable
	// predicates may be removed, provided at least one equality
	// predicate remains (paper §IV-A2).
	r.relaxable = appendRelaxable(r.relaxable[:0], pq)
	relaxable := r.relaxable
	variants, n := [2]*workload.Query{pq}, 1
	if len(pq.Order) > 0 {
		variants[1], n = r.sub.RelaxOrder(pq), 2
	}
	for _, base := range variants[:n] {
		for mask := 1; mask < 1<<len(relaxable); mask++ {
			removed := r.removed[:0]
			for i, p := range relaxable {
				if mask&(1<<i) != 0 {
					removed = append(removed, p)
				}
			}
			r.removed = removed
			r.addViewFamily(r.sub.Relax(base, removed))
		}
		if base != pq {
			r.addViewFamily(base)
		}
	}
	return r.view.take()
}

// Combine supplements the pool with candidates merged from compatible
// pairs (paper §IV-A3): two candidates with the same path and partition
// key, no clustering key, and different value sets yield a merged
// candidate with the union of their values. The full union of each
// compatible group is added as well.
func Combine(pool *Pool) {
	// A group is keyed by path and partition key, whose attribute order
	// is canonical after schema.New.
	groups := map[string]int{}
	var members [][]*schema.Index
	var key []byte
	for _, x := range pool.Indexes() {
		if len(x.Clustering) != 0 {
			continue
		}
		key = x.Path.AppendTo(key[:0])
		for _, a := range x.Partition {
			key = append(key, '|')
			key = append(key, a.QualifiedName()...)
		}
		g, ok := groups[string(key)]
		if !ok {
			g = len(members)
			groups[string(key)] = g
			members = append(members, nil)
		}
		members[g] = append(members[g], x)
	}
	var values []*model.Attribute
	for _, group := range members {
		if len(group) < 2 {
			continue
		}
		// Pairwise unions.
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				values = unionValues(values[:0], group[i], group[j])
				pool.add(schema.New(group[i].Path, group[i].Partition, nil, values))
			}
		}
		// Full-group union.
		values = unionValues(values[:0], group...)
		pool.add(schema.New(group[0].Path, group[0].Partition, nil, values))
	}
}

// unionValues appends to out the distinct values of the given
// candidates.
func unionValues(out []*model.Attribute, xs ...*schema.Index) []*model.Attribute {
	for _, x := range xs {
		for _, v := range x.Values {
			if !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
	}
	return out
}
