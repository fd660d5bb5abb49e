package enumerator

import (
	"fmt"

	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

// Pool is the candidate column family pool built up during enumeration.
// Structurally identical candidates are stored once.
type Pool struct {
	s     *schema.Schema
	feats Features
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

// merge absorbs a local pool's candidates in their insertion order.
// Provisional names the local pool assigned are cleared so the
// receiving pool numbers new candidates by its own insertion sequence —
// this is what keeps parallel enumeration's naming byte-identical to a
// serial run (enumeration itself never assigns names).
func (p *Pool) merge(local *Pool) {
	for _, x := range local.Indexes() {
		x.Name = ""
		p.s.Add(x)
	}
}

// Indexes returns the pool's candidates in insertion order.
func (p *Pool) Indexes() []*schema.Index { return p.s.Indexes() }

// Len returns the number of distinct candidates.
func (p *Pool) Len() int { return p.s.Len() }

// Lookup returns the pool's instance of a structurally identical
// candidate, or nil.
func (p *Pool) Lookup(x *schema.Index) *schema.Index { return p.s.Lookup(x) }

// EnumerateQuery adds to the pool every candidate column family the
// paper's Enumerate(q) generates for one query: for each decomposition
// point along the query path, the prefix query's materialized view, its
// split (key-only plus id-to-attributes) variants, and the relaxed
// variants; then recursively the candidates of the remainder query
// (paper §IV-A2 and Fig. 5).
func EnumerateQuery(pool *Pool, q *workload.Query) error {
	if len(q.EqualityPredicates()) == 0 {
		return fmt.Errorf("enumerator: query %q has no equality predicate; no valid get request can anchor it", workload.Label(q))
	}
	visited := map[string]bool{}
	enumerateQuery(pool, q, visited)
	if !pool.feats.SkipReverse {
		enumerateQuery(pool, ReverseQuery(q), visited)
	}
	return nil
}

// enumerateQuery decomposes q at every path position. The visited set
// memoizes sub-queries by structural signature: decomposing at the far
// end of the path produces a remainder structurally identical to its
// parent (only the predicate at the end changes to an id equality),
// which would otherwise recurse forever.
func enumerateQuery(pool *Pool, q *workload.Query, visited map[string]bool) {
	sig := QuerySignature(q)
	if visited[sig] {
		return
	}
	visited[sig] = true
	n := q.Path.Len() - 1
	for s := 0; s <= n; s++ {
		prefix := PrefixQuery(q, s)
		if len(prefix.EqualityPredicates()) > 0 {
			wholeQueryCandidates(pool, prefix)
		}
		if s > 0 {
			enumerateQuery(pool, RemainderQuery(q, s), visited)
		}
	}
}

// QuerySignature canonicalizes a query for memoization: the path, the
// selected attributes, and the predicates with parameter names ignored
// (two sub-queries differing only in parameter naming decompose
// identically).
func QuerySignature(q *workload.Query) string {
	var b []byte
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

// wholeQueryCandidates adds the candidates for answering pq with a
// single get plus client-side steps: the materialized view, the
// key-only and id-to-attribute splits, and all relaxed variants.
func wholeQueryCandidates(pool *Pool, pq *workload.Query) {
	addViewFamily(pool, pq)

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
			addViewFamily(pool, relaxed)
		}
		if base != pq {
			addViewFamily(pool, base)
		}
	}
}

// addViewFamily adds the materialized view of pq plus its split
// variants.
func addViewFamily(pool *Pool, pq *workload.Query) {
	mv := MaterializedView(pq)
	if mv == nil {
		return
	}
	pool.add(mv)
	if ko := KeyOnlyView(mv); ko != nil {
		pool.add(ko)
	}
	for _, iv := range IDViews(pq) {
		pool.add(iv)
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
