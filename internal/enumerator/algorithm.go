package enumerator

import (
	"context"

	"nose/internal/obs"
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
// EnumerateWorkloadCtx with every feature on, unobserved and
// uncancellable. Production always passes options; this form is the
// benchmark hook (root bench_test.go) and the fixture of the planner and
// executor tests.
func EnumerateWorkload(w *workload.Workload) (*Result, error) {
	return EnumerateWorkloadCtx(context.Background(), w, Features{}, nil)
}

// EnumerateWorkloadCtx is Algorithm 1 with feature toggles, run on the
// calling goroutine, with enumeration counters recorded into r (which
// may be nil), under a cancellable context.
//
// Algorithm 1 poses the same query again and again (every (update,
// candidate) pair has support queries, few of them new), so the call
// owns one run: each distinct QuerySignature is enumerated once, on its
// first request, into a list of the run's canonical candidate
// instances, and every later request replays that list. Each workload
// item (a query, or in the support passes one candidate's support
// queries) merges its list into the pool as soon as it is enumerated,
// which is when a candidate gets its cfN name.
//
// The context is checked before each query, each update's support
// sweep and each candidate the sweep modifies, so a cancelled
// enumeration returns ctx.Err() promptly instead of finishing the
// exponential candidate generation. A partial pool is never returned.
func EnumerateWorkloadCtx(ctx context.Context, w *workload.Workload, feats Features, r *obs.Registry) (*Result, error) {
	return newRun(feats).enumerateWorkload(ctx, w, r)
}

// enumerateWorkload is EnumerateWorkloadCtx over the run memo.
func (memo *run) enumerateWorkload(ctx context.Context, w *workload.Workload, r *obs.Registry) (*Result, error) {
	pool := NewPool()
	emittedC := r.Counter("enum.candidates_emitted")
	// pooled marks the run's candidates the pool already holds. Only the
	// run's candidates join it before Combine, each interned once, so
	// a number stands for an ID.
	var pooled collector
	merge := func(list []*cand) {
		emittedC.Add(int64(len(list)))
		for _, c := range list {
			if pooled.mark(c) {
				pool.s.Add(c.x)
			}
		}
	}

	queries := w.Queries()
	r.Counter("enum.queries").Add(int64(len(queries)))
	for _, ws := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		list, err := memo.enumerate(ws.Statement.(*workload.Query))
		if err != nil {
			return nil, err
		}
		merge(list)
	}

	res := &Result{
		Pool:    pool,
		Support: map[workload.WriteStatement]map[string][]*workload.Query{},
	}

	// The paper runs support-query enumeration twice: candidates added
	// for support queries in the first pass may themselves require
	// support queries with paths not yet covered. Each update sweeps
	// the pool as it stood when the sweep began; the candidates it adds
	// are swept by the next update. A sweep starts where the update's
	// previous one stopped: the pool only grows, and a candidate the
	// update did not modify then it does not modify now. A candidate's
	// support queries merge as the union of their memoised lists, which
	// is what the pool would receive from the lists one after another.
	var union collector
	swept := map[workload.WriteStatement]int{}
	updates := w.Updates()
	for pass := 0; pass < 2; pass++ {
		for _, ws := range updates {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			u := ws.Statement.(workload.WriteStatement)
			perIndex := res.Support[u]
			if perIndex == nil {
				perIndex = map[string][]*workload.Query{}
				res.Support[u] = perIndex
			}
			from, to := swept[u], pool.Len()
			swept[u] = to
			for _, x := range pool.Indexes()[from:to] {
				if !Modifies(u, x) {
					continue
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				sqs := SupportQueries(u, x)
				perIndex[x.ID()] = sqs
				r.Counter("enum.support_queries").Add(int64(len(sqs)))
				for _, sq := range sqs {
					// Support queries always carry an equality
					// predicate by construction, so enumeration
					// cannot fail; ignore the error defensively.
					list, _ := memo.enumerate(sq)
					union.add(list...)
				}
				merge(union.list)
				union.reset()
			}
		}
	}

	if !memo.feats.SkipCombine {
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
	// sizes of the memo, not events.
	r.Counter("enum.signatures").Add(int64(len(memo.queries)))
	r.Counter("enum.view_families").Add(int64(len(memo.views)))
	return res, nil
}
