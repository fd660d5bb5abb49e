package enumerator_test

import (
	"fmt"

	"nose/internal/enumerator"
	"nose/internal/model"
	"nose/internal/obs"
	"nose/internal/schema"
	"nose/internal/workload"
)

// This file keeps the enumeration of PR 17 verbatim as the test-side
// reference: one fresh schema.Schema per workload item, nothing
// memoised, nothing interned, merged serially in workload order. The
// product enumerates each distinct signature once over shared canonical
// instances; refEnumerateWorkload is what it must be indistinguishable
// from.

// refResult is the reference's enumeration outcome.
type refResult struct {
	pool    *schema.Schema
	support map[workload.WriteStatement]map[string][]*workload.Query
}

// refEnumerator carries the feature toggles and, for the two counters
// that describe repetition, the distinct signatures it was asked to
// enumerate and to build view families for. It looks nothing up in
// them.
type refEnumerator struct {
	feats enumerator.Features
	sigs  map[string]bool
	views map[string]bool
}

func refAdd(pool *schema.Schema, x *schema.Index) {
	if err := x.Validate(); err != nil {
		panic(fmt.Sprintf("reference enumerator: generated invalid candidate: %v", err))
	}
	pool.Add(x)
}

// refMerge absorbs a local pool, clearing the provisional names it
// assigned so the receiver numbers candidates by its own sequence.
func refMerge(pool, local *schema.Schema) {
	for _, x := range local.Indexes() {
		x.Name = ""
		pool.Add(x)
	}
}

func (e *refEnumerator) enumerateQuery(pool *schema.Schema, q *workload.Query) error {
	if len(q.EqualityPredicates()) == 0 {
		return fmt.Errorf("no equality predicate")
	}
	e.sigs[enumerator.QuerySignature(q)] = true
	visited := map[string]bool{}
	e.enumerate(pool, q, visited)
	if !e.feats.SkipReverse {
		e.enumerate(pool, enumerator.ReverseQuery(q), visited)
	}
	return nil
}

func (e *refEnumerator) enumerate(pool *schema.Schema, q *workload.Query, visited map[string]bool) {
	sig := enumerator.QuerySignature(q)
	if visited[sig] {
		return
	}
	visited[sig] = true
	n := q.Path.Len() - 1
	for s := 0; s <= n; s++ {
		prefix := enumerator.PrefixQuery(q, s)
		if len(prefix.EqualityPredicates()) > 0 {
			e.views[enumerator.QuerySignature(prefix)] = true
			refWholeQueryCandidates(pool, prefix)
		}
		if s > 0 {
			e.enumerate(pool, enumerator.RemainderQuery(q, s), visited)
		}
	}
}

func refWholeQueryCandidates(pool *schema.Schema, pq *workload.Query) {
	refAddViewFamily(pool, pq)
	relaxable := enumerator.RelaxablePredicates(pq)
	variants := []*workload.Query{pq}
	if len(pq.Order) > 0 {
		variants = append(variants, enumerator.RelaxOrder(pq))
	}
	for _, base := range variants {
		for mask := 1; mask < 1<<len(relaxable); mask++ {
			var removed []workload.Predicate
			for i, p := range relaxable {
				if mask&(1<<i) != 0 {
					removed = append(removed, p)
				}
			}
			relaxed := enumerator.RelaxQuery(base, removed)
			if len(relaxed.EqualityPredicates()) == 0 {
				continue
			}
			refAddViewFamily(pool, relaxed)
		}
		if base != pq {
			refAddViewFamily(pool, base)
		}
	}
}

func refAddViewFamily(pool *schema.Schema, pq *workload.Query) {
	mv := enumerator.MaterializedView(pq)
	if mv == nil {
		return
	}
	refAdd(pool, mv)
	if ko := enumerator.KeyOnlyView(mv); ko != nil {
		refAdd(pool, ko)
	}
	for _, iv := range enumerator.IDViews(pq) {
		refAdd(pool, iv)
	}
}

// refEnumerateWorkload is Algorithm 1 as PR 17 ran it at one worker,
// with the same enum.* counters.
func refEnumerateWorkload(w *workload.Workload, feats enumerator.Features, r *obs.Registry) (*refResult, error) {
	e := &refEnumerator{feats: feats, sigs: map[string]bool{}, views: map[string]bool{}}
	pool := schema.NewSchema()
	emittedC := r.Counter("enum.candidates_emitted")

	queries := w.Queries()
	r.Counter("enum.queries").Add(int64(len(queries)))
	for _, ws := range queries {
		local := schema.NewSchema()
		if err := e.enumerateQuery(local, ws.Statement.(*workload.Query)); err != nil {
			return nil, err
		}
		emittedC.Add(int64(local.Len()))
		refMerge(pool, local)
	}

	res := &refResult{
		pool:    pool,
		support: map[workload.WriteStatement]map[string][]*workload.Query{},
	}
	for pass := 0; pass < 2; pass++ {
		for _, ws := range w.Updates() {
			u := ws.Statement.(workload.WriteStatement)
			perIndex := res.support[u]
			if perIndex == nil {
				perIndex = map[string][]*workload.Query{}
				res.support[u] = perIndex
			}
			// A fixed snapshot: candidates this update adds are swept
			// by the next one.
			snapshot := append([]*schema.Index(nil), pool.Indexes()...)
			for _, x := range snapshot {
				if _, done := perIndex[x.ID()]; done {
					continue
				}
				if !enumerator.Modifies(u, x) {
					continue
				}
				sqs := enumerator.SupportQueries(u, x)
				local := schema.NewSchema()
				for _, sq := range sqs {
					_ = e.enumerateQuery(local, sq)
				}
				perIndex[x.ID()] = sqs
				r.Counter("enum.support_queries").Add(int64(len(sqs)))
				emittedC.Add(int64(local.Len()))
				refMerge(pool, local)
			}
		}
	}

	if !feats.SkipCombine {
		before := pool.Len()
		refCombine(pool)
		r.Counter("enum.combined").Add(int64(pool.Len() - before))
	}
	r.Counter("enum.candidates_unique").Add(int64(pool.Len()))
	r.Counter("enum.signatures").Add(int64(len(e.sigs)))
	r.Counter("enum.view_families").Add(int64(len(e.views)))
	return res, nil
}

// refCombine is Combine over the reference's pool.
func refCombine(pool *schema.Schema) {
	type groupKey struct{ path, partition string }
	groups := map[groupKey][]*schema.Index{}
	var order []groupKey
	for _, x := range pool.Indexes() {
		if len(x.Clustering) != 0 {
			continue
		}
		partition := ""
		for _, a := range x.Partition {
			partition += a.QualifiedName() + "|"
		}
		k := groupKey{path: x.Path.String(), partition: partition}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], x)
	}
	union := func(a, b *schema.Index) *schema.Index {
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
	for _, k := range order {
		members := groups[k]
		if len(members) < 2 {
			continue
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				refAdd(pool, union(members[i], members[j]))
			}
		}
		merged := members[0]
		for _, m := range members[1:] {
			merged = union(merged, m)
		}
		refAdd(pool, merged)
	}
}
