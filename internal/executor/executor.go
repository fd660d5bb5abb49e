// Package executor runs recommended implementation plans against the
// simulated record store — the "simple execution engine which can
// execute the plans recommended by NoSE" of paper §VII-A. Query plans
// execute as chains of get requests with client-side filtering,
// sorting and joining; update plans execute their support queries and
// then issue the delete and put requests that maintain each column
// family.
package executor

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/search"
	"nose/internal/workload"
)

// Params binds statement parameter names to values.
type Params map[string]backend.Value

// Tuple is one result row: its values under the column header every row
// of the result shares. Callers compare rows through CanonicalRows.
type Tuple struct {
	cols *columns
	vals []backend.Value
}

// columns is a result's header: qualified attribute names, ascending.
type columns struct{ names []string }

// Result carries a statement execution's rows and simulated time.
type Result struct {
	// Rows are a query's result tuples; a write returns none.
	Rows []Tuple
	// SimMillis is the accumulated simulated service plus client time.
	SimMillis float64
	// Retries counts the operations this statement retried, failed
	// executions included: the statement's own share of exec.retries.
	Retries int64
}

// Executor executes plans against one store — any backend.KVBackend,
// including a fault-injecting wrapper from internal/faults.
type Executor struct {
	store backend.KVBackend
	lat   cost.Params
	retry RetryPolicy
	eo    execObs
	// progs memoizes compiled programs by *planner.Plan and
	// *search.UpdateRecommendation for the executor's lifetime; pool
	// holds scratch, taken per call so that concurrent statements never
	// share rows.
	progs sync.Map
	pool  sync.Pool
}

// execObs holds the executor's instruments — its only counters. A new
// executor counts into a registry of its own; SetObs re-points it at a
// shared one.
type execObs struct {
	queries, writes           *obs.Counter
	queryErrors, writeErrors  *obs.Counter
	retries, retryExhausted   *obs.Counter
	backfillPuts              *obs.Counter
	queryLat, writeLat        *obs.Histogram
	backoffSimMs, wastedSimMs *obs.Gauge
}

// SetObs routes the executor's metrics into a registry: exec.* counters
// for statements and retries, and exec.{query,write}.sim_ms latency
// histograms in simulated milliseconds. Metrics reads the same
// instruments, so executors sharing a registry report shared totals.
func (e *Executor) SetObs(r *obs.Registry) {
	e.eo = execObs{
		queries:        r.Counter("exec.queries"),
		writes:         r.Counter("exec.writes"),
		queryErrors:    r.Counter("exec.query_errors"),
		writeErrors:    r.Counter("exec.write_errors"),
		retries:        r.Counter("exec.retries"),
		retryExhausted: r.Counter("exec.retry_exhausted"),
		backfillPuts:   r.Counter("exec.backfill_puts"),
		queryLat:       r.Histogram("exec.query.sim_ms"),
		writeLat:       r.Histogram("exec.write.sim_ms"),
		backoffSimMs:   r.Gauge("exec.backoff_sim_ms"),
		wastedSimMs:    r.Gauge("exec.wasted_sim_ms"),
	}
}

// New returns an executor over the store, charging client-side work
// with the same coefficients as the advisor's cost model. Operations
// are not retried; use NewRetrying against a faulty backend.
func New(store backend.KVBackend, lat cost.Params) *Executor {
	return NewRetrying(store, lat, RetryPolicy{})
}

// NewRetrying returns an executor that retries retryable faults under
// the given policy, charging wasted attempts and backoff into each
// statement's simulated time.
func NewRetrying(store backend.KVBackend, lat cost.Params, policy RetryPolicy) *Executor {
	e := &Executor{store: store, lat: lat, retry: policy.normalized()}
	e.SetObs(obs.NewRegistry())
	return e
}

// Metrics returns a snapshot of the retry counters.
func (e *Executor) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Retries:       e.eo.retries.Value(),
		Exhausted:     e.eo.retryExhausted.Value(),
		BackoffMillis: e.eo.backoffSimMs.Value(),
		WastedMillis:  e.eo.wastedSimMs.Value(),
	}
}

// Put writes one record into a column family through the executor's
// store under a fresh per-operation retry budget. It is the backfill
// write path of live schema migrations: routing the copy through the
// executor means backfill traffic crosses the same fault injector
// (and, on replicated systems, the same quorum coordinator) as client
// statements, and is retried and charged identically. The returned
// simulated time includes failed attempts and backoff.
func (e *Executor) Put(cf string, partition, clustering, values []backend.Value) (float64, error) {
	ms, err := e.retryOp(&stmtBudget{}, cf, func() (float64, error) {
		pr, err := e.store.Put(cf, partition, clustering, values)
		if err != nil {
			return 0, err
		}
		return pr.SimMillis, nil
	})
	e.eo.backfillPuts.Inc()
	return ms, err
}

// compiled returns the program of a plan or update recommendation,
// compiling it on first use. Racing first uses compile equal programs
// and either may be kept.
func compiled[K any](e *Executor, key *K, compile func(*K) (*program, error)) (*program, error) {
	if p, ok := e.progs.Load(key); ok {
		return p.(*program), nil
	}
	p, err := compile(key)
	if err == nil {
		e.progs.Store(key, p)
	}
	return p, err
}

// scratch is one statement execution's working memory. Rows are
// prog.width-value windows of one arena; a step rewrites rows in place
// or builds next and swaps. Nothing in it outlives the call: results
// are copied out and written cells are allocated fresh.
type scratch struct {
	prog       *program
	pv         []backend.Value // prog's parameters by index; absent{} marks an unbound one
	vals       []backend.Value // arena
	rows, next [][]backend.Value
	ranges     [1]backend.ClusterRange
	key        []byte              // dedupe key under construction
	seen       map[string]struct{} // projections already emitted
	writes     []pendingWrite
	bgt        stmtBudget
}

// absent marks a parameter the caller did not bind.
type absent struct{}

func (e *Executor) scratch() *scratch {
	sc, _ := e.pool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{seen: map[string]struct{}{}}
	}
	sc.writes, sc.bgt = sc.writes[:0], stmtBudget{}
	return sc
}

// window cuts n nil values from the arena. Growing the arena leaves
// earlier windows on the old array, which stays valid.
func (sc *scratch) window(n int) []backend.Value {
	sc.vals = append(sc.vals, make([]backend.Value, n)...)
	return sc.vals[len(sc.vals)-n:]
}

// enter resolves prog's parameters once and starts it on one empty row.
func (sc *scratch) enter(prog *program, params Params) {
	sc.prog, sc.vals = prog, sc.vals[:0]
	sc.pv = sc.window(len(prog.params))
	for i, name := range prog.params {
		if v, ok := params[name]; ok {
			sc.pv[i] = v
		} else {
			sc.pv[i] = absent{}
		}
	}
	sc.rows = append(sc.rows[:0], sc.window(prog.width))
}

// param returns parameter i; false when i is -1 or the caller left the
// parameter unbound.
func (sc *scratch) param(i int) (backend.Value, bool) {
	if i < 0 {
		return nil, false
	}
	_, unbound := sc.pv[i].(absent)
	return sc.pv[i], !unbound
}

func (sc *scratch) missing(i int) error {
	return fmt.Errorf("missing parameter ?%s", sc.prog.params[i])
}

// ExecuteQuery runs a query plan with the given parameter bindings.
// On error the returned result carries the simulated time consumed
// before the failure so callers can charge partial work (e.g. a failed
// plan attempt before failing over to another plan).
func (e *Executor) ExecuteQuery(plan *planner.Plan, params Params) (*Result, error) {
	res := &Result{}
	prog, err := compiled(e, plan, compileQuery)
	if err == nil {
		sc := e.scratch()
		sc.enter(prog, params)
		if res.SimMillis, err = e.run(prog.plans[0], sc); err == nil {
			res.Rows = sc.project()
		}
		res.Retries = sc.bgt.retries
		e.pool.Put(sc)
	}
	if err != nil {
		e.eo.queryErrors.Inc()
		return res, fmt.Errorf("executor: query %q: %w", workload.Label(plan.Query), err)
	}
	e.eo.queries.Inc()
	e.eo.queryLat.Observe(res.SimMillis)
	return res, nil
}

// run executes one plan's steps over sc.rows. On error the returned
// millis carry the simulated time consumed so far.
func (e *Executor) run(ops []any, sc *scratch) (float64, error) {
	sim := 0.0
	for _, o := range ops {
		switch o := o.(type) {
		case *lookupOp:
			millis, err := e.lookup(o, sc)
			sim += millis
			if err != nil {
				return sim, err
			}
		case filterOp:
			sim += e.lat.FilterRowCost * float64(len(sc.rows))
			kept := sc.rows[:0]
			for _, row := range sc.rows {
				ok, err := o.eval(row, sc)
				if err != nil {
					return sim, err
				}
				if ok {
					kept = append(kept, row)
				}
			}
			sc.rows = kept
		case sortOp:
			if n := float64(len(sc.rows)); n > 1 {
				sim += e.lat.SortRowCost * n * math.Log2(n)
			}
			rows := sc.rows
			sort.SliceStable(rows, func(i, j int) bool {
				for _, slot := range o {
					// A sort key is skipped when either side is nil.
					if av, bv := rows[i][slot], rows[j][slot]; av != nil && bv != nil {
						if c := backend.CompareValues(av, bv); c != 0 {
							return c < 0
						}
					}
				}
				return false
			})
		case limitOp:
			if len(sc.rows) > int(o) {
				sc.rows = sc.rows[:o]
			}
		}
	}
	return sim, nil
}

// lookup executes one lookup step: one get per driving row, each fetched
// record extending a copy of its driving row. The returned millis are
// meaningful even on error: they carry the simulated time of the gets
// completed plus any retry spend of the failed one.
func (e *Executor) lookup(o *lookupOp, sc *scratch) (float64, error) {
	req := backend.GetRequest{Limit: o.limit}
	if o.rangeParam >= 0 {
		v, ok := sc.param(o.rangeParam)
		if !ok {
			return 0, sc.missing(o.rangeParam)
		}
		sc.ranges[0] = backend.ClusterRange{Op: o.rangeOp, Value: v}
		req.Ranges = sc.ranges[:]
	}
	var res *backend.GetResult
	get := func() (float64, error) {
		var err error
		if res, err = e.store.Get(o.cf, req); err != nil {
			return 0, err
		}
		return res.SimMillis, nil
	}
	sim := 0.0
	sc.next = sc.next[:0]
	for _, row := range sc.rows {
		req.Partition = make([]backend.Value, len(o.part))
		for i, src := range o.part {
			v, ok := sc.param(src.param)
			if !ok {
				v = row[src.slot]
			}
			if v == nil {
				return sim, fmt.Errorf("no binding for partition column %s of %s", o.cols[i], o.cf)
			}
			req.Partition[i] = v
		}
		millis, err := e.retryOp(&sc.bgt, o.cf, get)
		sim += millis
		if err != nil {
			return sim, err
		}
		for _, rec := range res.Records {
			sc.vals = append(sc.vals, row...)
			out := sc.vals[len(sc.vals)-len(row):]
			for _, m := range o.fromPart {
				out[m[1]] = req.Partition[m[0]]
			}
			for _, m := range o.fromClus {
				out[m[1]] = rec.Clustering[m[0]]
			}
			for _, m := range o.fromVals {
				out[m[1]] = rec.Values[m[0]]
			}
			sc.next = append(sc.next, out)
		}
	}
	sc.rows, sc.next = sc.next, sc.rows
	return sim, nil
}

// holds reports whether a comparison result satisfies an operator.
func holds(op workload.Op, c int) bool {
	return op == workload.Eq && c == 0 || op == workload.Gt && c > 0 || op == workload.Ge && c >= 0 ||
		op == workload.Lt && c < 0 || op == workload.Le && c <= 0
}

// eval applies the predicates to one row.
func (preds filterOp) eval(row []backend.Value, sc *scratch) (bool, error) {
	for _, p := range preds {
		if row[p.slot] == nil {
			return false, fmt.Errorf("no step provides the attribute filtered on ?%s", sc.prog.params[p.param])
		}
		want, ok := sc.param(p.param)
		if !ok {
			return false, sc.missing(p.param)
		}
		if !holds(p.op, backend.CompareValues(row[p.slot], want)) {
			return false, nil
		}
	}
	return true, nil
}

// nilCell stands in for a nil value in a dedupe key.
var nilCell = []backend.Value{""}

// project keeps the first row of each distinct projection, in order
// (paper §IV-B step 3), and copies those out into one value arena and
// one tuple slice the caller owns. Two rows are the same when their
// projected cells encode to the same key bytes.
func (sc *scratch) project() []Tuple {
	proj, rows := sc.prog.proj, sc.rows
	if len(rows) > 1 {
		clear(sc.seen)
		kept := rows[:0]
		for _, row := range rows {
			key := sc.key[:0]
			for _, s := range proj {
				if row[s] == nil {
					key = backend.AppendKey(key, nilCell)
				} else {
					key = backend.AppendKey(key, row[s:s+1])
				}
			}
			sc.key = key
			if _, dup := sc.seen[string(key)]; !dup {
				sc.seen[string(key)] = struct{}{}
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	vals := make([]backend.Value, 0, len(rows)*len(proj))
	out := make([]Tuple, len(rows))
	for i, row := range rows {
		for _, s := range proj {
			vals = append(vals, row[s])
		}
		out[i] = Tuple{sc.prog.cols, vals[len(vals)-len(proj):]}
	}
	return out
}

// pendingWrite is one put or delete of a write statement, built while
// its family's support rows are at hand and issued once every family's
// support queries have run. The cells are freshly allocated: the store,
// hint queues and verifier retain them.
type pendingWrite struct {
	prog  *program
	ur    int // index of the update recommendation it maintains
	del   bool
	cells []backend.Value // the record's cells; a delete's stop at the key
}

// ExecuteWrite runs all maintenance of one statement execution across
// its column families: all support queries first, then all deletes and
// puts, so maintenance of one family cannot destroy the data another
// family's support queries need. The result carries no rows; on error
// it carries the simulated time consumed before the failure.
func (e *Executor) ExecuteWrite(urs []*search.UpdateRecommendation, params Params) (*Result, error) {
	sc := e.scratch()
	res := &Result{}
	err := e.read(urs, params, sc, &res.SimMillis)
	if err == nil {
		err = e.write(sc, &res.SimMillis)
	}
	res.Retries = sc.bgt.retries
	e.pool.Put(sc)
	if err != nil {
		e.eo.writeErrors.Inc()
		return res, err
	}
	e.eo.writes.Inc()
	e.eo.writeLat.Observe(res.SimMillis)
	return res, nil
}

// read runs each recommendation's support plans over the row its
// parameters seed and queues the writes of the rows that come out.
func (e *Executor) read(urs []*search.UpdateRecommendation, params Params, sc *scratch, sim *float64) error {
	for i, ur := range urs {
		prog, err := compiled(e, ur, compileWrite)
		if err != nil {
			return err
		}
		sc.enter(prog, params)
		for _, b := range prog.binds {
			v, ok := sc.param(b.param)
			if !ok {
				return fmt.Errorf("executor: %q %w", workload.Label(ur.Plan.Statement), sc.missing(b.param))
			}
			if b.slot >= 0 {
				sc.rows[0][b.slot] = v
			}
		}
		for _, ops := range prog.plans {
			millis, err := e.run(ops, sc)
			*sim += millis
			if err != nil {
				return fmt.Errorf("executor: support query for %q: %w", workload.Label(ur.Plan.Statement), err)
			}
		}
		for _, row := range sc.rows {
			if prog.doDelete {
				sc.writes = append(sc.writes, pendingWrite{prog, i, true, sc.record(row, prog.cells[:prog.nKey], false)})
			}
			if prog.doInsert {
				sc.writes = append(sc.writes, pendingWrite{prog, i, false, sc.record(row, prog.cells, true)})
			}
		}
	}
	return nil
}

// record builds the cells of one written record from a support row: an
// UPDATE's new value beats the row, and a cell the row leaves unset is
// its type's zero value.
func (sc *scratch) record(row []backend.Value, cells []cell, overrides bool) []backend.Value {
	out := make([]backend.Value, len(cells))
	for i, c := range cells {
		switch {
		case overrides && c.param >= 0:
			out[i] = sc.pv[c.param]
		case row[c.slot] != nil:
			out[i] = row[c.slot]
		default:
			out[i] = c.zero
		}
	}
	return out
}

// write issues the queued deletes and puts in order. Each family's time
// is summed on its own before it joins the statement's, as its puts and
// deletes always were; on error sim carries the time consumed so far.
func (e *Executor) write(sc *scratch, sim *float64) error {
	family := 0.0
	for i, w := range sc.writes {
		if i > 0 && w.ur != sc.writes[i-1].ur {
			*sim, family = *sim+family, 0
		}
		p, c := w.prog, w.cells
		millis, err := e.retryOp(&sc.bgt, p.cf, func() (float64, error) {
			var pr *backend.PutResult
			var err error
			if w.del {
				_, pr, err = e.store.Delete(p.cf, c[:p.nPart:p.nPart], c[p.nPart:])
			} else {
				pr, err = e.store.Put(p.cf, c[:p.nPart:p.nPart], c[p.nPart:p.nKey:p.nKey], c[p.nKey:])
			}
			if err != nil {
				return 0, err
			}
			return pr.SimMillis, nil
		})
		family += millis
		if err != nil {
			*sim += family
			return err
		}
	}
	*sim += family
	return nil
}
