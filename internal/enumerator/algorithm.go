package enumerator

import (
	"context"

	"nose/internal/obs"
	"nose/internal/par"
	"nose/internal/schema"
	"nose/internal/workload"
)

// Result is the outcome of workload enumeration: the candidate pool and
// the support queries discovered for each (update, candidate) pair.
type Result struct {
	// Pool holds every enumerated candidate column family.
	Pool *Pool
	// Support maps each write statement to the support queries needed
	// per candidate index it modifies, keyed by the index's canonical
	// ID.
	Support map[workload.WriteStatement]map[string][]*workload.Query
}

// Features toggles optional enumeration steps, for ablation studies.
type Features struct {
	// SkipCombine disables the Combine supplement (paper §IV-A3).
	SkipCombine bool
	// SkipReverse disables reversed-orientation enumeration, leaving
	// only candidates anchored at the far end of each query path.
	SkipReverse bool
}

// EnumerateWorkload runs the paper's Algorithm 1: enumerate candidates
// for every query in the workload, then — twice, to cover paths first
// reached by support queries — enumerate candidates for the support
// queries of every update against every candidate it modifies, and
// finally supplement the pool with combined candidates. It is
// EnumerateWorkloadCtx with every feature on, run inline, unobserved
// and uncancellable. Production always passes options; this form is the
// benchmark hook (root bench_test.go) and the fixture of the planner and
// executor tests.
func EnumerateWorkload(w *workload.Workload) (*Result, error) {
	return EnumerateWorkloadCtx(context.Background(), w, Features{}, 1, nil)
}

// EnumerateWorkloadCtx is Algorithm 1 with feature toggles, fanned
// across a bounded worker pool, with enumeration counters recorded into
// r (which may be nil), under a cancellable context.
//
// Algorithm 1 poses the same query again and again (every (update,
// candidate) pair has support queries, few of them new), so the call
// owns one run: each distinct QuerySignature is enumerated once, by
// whichever worker asks first, into a list of the run's canonical
// candidate instances, and every other request replays that list.
//
// Each workload item (a query, or in the support passes one candidate's
// support queries) collects its candidates as an ordered set of
// pointers, and the items are merged into the pool in workload order, so
// the resulting pool — content, insertion order, and assigned column
// family names — and every enum.* counter is byte-identical for every
// worker count, including the serial path (workers <= 1 runs inline with
// no goroutines). The fan-out is safe because candidate generation is
// purely additive: it never reads the pool it adds to, and a signature's
// list is the same whoever computes it, so collecting per item and
// merging afterwards reproduces exactly the serial insertion sequence.
// Canonical instances stay unnamed until the merge, which runs on the
// calling goroutine.
//
// The context is checked before each fan-out batch (per-query
// enumeration and every support sweep) and inside each batch item, so a
// cancelled enumeration returns ctx.Err() promptly instead of finishing
// the exponential candidate generation. A partial pool is never
// returned.
func EnumerateWorkloadCtx(ctx context.Context, w *workload.Workload, feats Features, workers int, r *obs.Registry) (*Result, error) {
	pool := NewPool()
	memo := newRun(feats)
	emittedC := r.Counter("enum.candidates_emitted")

	queries := w.Queries()
	lists := make([][]*schema.Index, len(queries))
	errs := make([]error, len(queries))
	par.Do(len(queries), workers, func(i int) {
		if ctx.Err() != nil {
			return
		}
		lists[i], errs[i] = memo.enumerate(queries[i].Statement.(*workload.Query))
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.Counter("enum.queries").Add(int64(len(queries)))
	for i := range queries {
		if errs[i] != nil {
			return nil, errs[i]
		}
		emittedC.Add(int64(len(lists[i])))
		pool.merge(lists[i])
	}

	res := &Result{
		Pool:    pool,
		Support: map[workload.WriteStatement]map[string][]*workload.Query{},
	}

	// The paper runs support-query enumeration twice: candidates added
	// for support queries in the first pass may themselves require
	// support queries with paths not yet covered. Each update sweeps a
	// fixed snapshot of the pool, so the (update, candidate) pairs of
	// one sweep are independent and fan out; their candidates merge in
	// snapshot order. Updates stay sequential because each update's
	// snapshot must include the candidates the previous one added.
	type supportItem struct {
		x    *schema.Index
		sqs  []*workload.Query
		list []*schema.Index
	}
	var items []*supportItem
	for pass := 0; pass < 2; pass++ {
		for _, ws := range w.Updates() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			u := ws.Statement.(workload.WriteStatement)
			perIndex := res.Support[u]
			if perIndex == nil {
				perIndex = map[string][]*workload.Query{}
				res.Support[u] = perIndex
			}
			items = items[:0]
			for _, x := range pool.Indexes() {
				if _, done := perIndex[x.ID()]; done {
					continue
				}
				if !Modifies(u, x) {
					continue
				}
				items = append(items, &supportItem{x: x})
			}
			par.Do(len(items), workers, func(i int) {
				if ctx.Err() != nil {
					return
				}
				it := items[i]
				it.sqs = SupportQueries(u, it.x)
				lists := make([][]*schema.Index, len(it.sqs))
				for j, sq := range it.sqs {
					// Support queries always carry an equality
					// predicate by construction, so enumeration
					// cannot fail; ignore the error defensively.
					lists[j], _ = memo.enumerate(sq)
				}
				it.list = union(lists)
			})
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, it := range items {
				perIndex[it.x.ID()] = it.sqs
				r.Counter("enum.support_queries").Add(int64(len(it.sqs)))
				emittedC.Add(int64(len(it.list)))
				pool.merge(it.list)
			}
		}
	}

	if !feats.SkipCombine {
		before := pool.Len()
		Combine(pool)
		r.Counter("enum.combined").Add(int64(pool.Len() - before))
	}
	// Emitted minus unique is the dedup saving; both sides are recorded
	// so the ratio is readable straight off a snapshot.
	r.Counter("enum.candidates_unique").Add(int64(pool.Len()))
	// How much of Algorithm 1 was repetition: the distinct signatures
	// behind enum.queries + enum.support_queries requests, and the
	// distinct prefix queries whose view families were built. Both are
	// sizes of the memo, not events, so no worker count moves them.
	r.Counter("enum.signatures").Add(int64(len(memo.queries.m)))
	r.Counter("enum.view_families").Add(int64(len(memo.views.m)))
	return res, nil
}
