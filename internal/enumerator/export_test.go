package enumerator

import "nose/internal/workload"

// EnumerateQuery adds to the pool every candidate column family the
// paper's Enumerate(q) generates for one query: for each decomposition
// point along the query path, the prefix query's materialized view, its
// split (key-only plus id-to-attributes) variants, and the relaxed
// variants; then recursively the candidates of the remainder query
// (paper §IV-A2 and Fig. 5). Production enumerates whole workloads; the
// per-query tests (Fig. 6) need the one-query view.
func EnumerateQuery(pool *Pool, q *workload.Query) error {
	list, err := newRun(Features{}).enumerate(q)
	if err != nil {
		return err
	}
	pool.merge(list)
	return nil
}
