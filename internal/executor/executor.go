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

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/model"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// Params binds statement parameter names to values.
type Params map[string]backend.Value

// Tuple is one intermediate or final result row, keyed by qualified
// attribute name.
type Tuple map[string]backend.Value

// Result carries a statement execution's rows and simulated time.
type Result struct {
	// Rows are the result tuples.
	Rows []Tuple
	// SimMillis is the accumulated simulated service plus client time.
	SimMillis float64
}

// Executor executes plans against one store — any backend.KVBackend,
// including a fault-injecting wrapper from internal/faults.
type Executor struct {
	store backend.KVBackend
	lat   cost.Params
	retry RetryPolicy
	eo    execObs
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
// instruments, so executors sharing a registry report shared totals —
// a system that rebuilds its executor mid-run keeps its retry history.
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

// ExecuteQuery runs a query plan with the given parameter bindings.
// On error the returned result, when non-nil, carries the simulated
// time consumed before the failure so callers can charge partial work
// (e.g. a failed plan attempt before failing over to another plan).
func (e *Executor) ExecuteQuery(plan *planner.Plan, params Params) (*Result, error) {
	res, err := e.run(plan.Steps, params, []Tuple{{}}, &stmtBudget{})
	if err != nil {
		e.eo.queryErrors.Inc()
		return res, fmt.Errorf("executor: query %q: %w", workload.Label(plan.Query), err)
	}
	// Project to the selected attributes and discard duplicates
	// (paper §IV-B step 3).
	res.Rows = projectDistinct(res.Rows, plan.Query.Select, plan.Query.Order)
	e.eo.queries.Inc()
	e.eo.queryLat.Observe(res.SimMillis)
	return res, nil
}

// run executes a step sequence over seed tuples. On error the returned
// result carries the simulated time consumed so far (and no rows).
func (e *Executor) run(steps []planner.Step, params Params, seeds []Tuple, bgt *stmtBudget) (*Result, error) {
	tuples := seeds
	sim := 0.0
	for _, st := range steps {
		switch s := st.(type) {
		case *planner.LookupStep:
			next, millis, err := e.lookup(s, params, tuples, bgt)
			sim += millis
			if err != nil {
				return &Result{SimMillis: sim}, err
			}
			tuples = next
		case *planner.FilterStep:
			sim += e.lat.FilterRowCost * float64(len(tuples))
			kept := tuples[:0:0]
			for _, t := range tuples {
				ok, err := evalPredicates(s.Predicates, t, params)
				if err != nil {
					return &Result{SimMillis: sim}, err
				}
				if ok {
					kept = append(kept, t)
				}
			}
			tuples = kept
		case *planner.SortStep:
			n := float64(len(tuples))
			if n > 1 {
				sim += e.lat.SortRowCost * n * math.Log2(n)
			}
			sortTuples(tuples, s.By)
		case *planner.LimitStep:
			if len(tuples) > s.N {
				tuples = tuples[:s.N]
			}
		default:
			return &Result{SimMillis: sim}, fmt.Errorf("unknown step %T", st)
		}
	}
	return &Result{Rows: tuples, SimMillis: sim}, nil
}

// lookup executes one LookupStep: one get per driving tuple, merging
// fetched records into the driving tuples. The returned millis are
// meaningful even on error: they carry the simulated time of the gets
// completed plus any retry spend of the failed one.
func (e *Executor) lookup(s *planner.LookupStep, params Params, driving []Tuple, bgt *stmtBudget) ([]Tuple, float64, error) {
	def, err := e.store.Def(s.Index.Name)
	if err != nil {
		return nil, 0, err
	}

	// Map partition columns to their value sources.
	eqByAttr := map[string]string{} // qualified attr -> param name
	for _, p := range s.EqPredicates {
		eqByAttr[p.Ref.Attr.QualifiedName()] = p.Param
	}
	joinCol := ""
	if s.JoinKey != nil {
		joinCol = s.JoinKey.QualifiedName()
	}

	var ranges []backend.ClusterRange
	if rp := s.RangePredicate; rp != nil {
		v, ok := params[rp.Param]
		if !ok {
			return nil, 0, fmt.Errorf("missing parameter ?%s", rp.Param)
		}
		op, err := rangeOp(rp.Op)
		if err != nil {
			return nil, 0, err
		}
		ranges = append(ranges, backend.ClusterRange{Op: op, Value: v})
	}

	var out []Tuple
	sim := 0.0
	for _, t := range driving {
		partition := make([]backend.Value, len(def.PartitionCols))
		for i, col := range def.PartitionCols {
			switch {
			case col == joinCol:
				v, ok := t[col]
				if !ok {
					return nil, sim, fmt.Errorf("driving tuple lacks join key %s", col)
				}
				partition[i] = v
			default:
				if pname, ok := eqByAttr[col]; ok {
					if v, ok := params[pname]; ok {
						partition[i] = v
						continue
					}
				}
				v, ok := t[col]
				if !ok {
					return nil, sim, fmt.Errorf("no binding for partition column %s of %s", col, s.Index.Name)
				}
				partition[i] = v
			}
		}
		var res *backend.GetResult
		millis, err := e.retryOp(bgt, s.Index.Name, func() (float64, error) {
			var err error
			res, err = e.store.Get(s.Index.Name, backend.GetRequest{
				Partition: partition,
				Ranges:    ranges,
				Limit:     s.Limit,
			})
			if err != nil {
				return 0, err
			}
			return res.SimMillis, nil
		})
		sim += millis
		if err != nil {
			return nil, sim, err
		}
		for _, rec := range res.Records {
			merged := make(Tuple, len(t)+len(def.PartitionCols)+len(rec.Clustering)+len(rec.Values))
			for k, v := range t {
				merged[k] = v
			}
			for i, col := range def.PartitionCols {
				merged[col] = partition[i]
			}
			for i, col := range def.ClusteringCols {
				merged[col] = rec.Clustering[i]
			}
			for i, col := range def.ValueCols {
				merged[col] = rec.Values[i]
			}
			out = append(out, merged)
		}
	}
	return out, sim, nil
}

func rangeOp(op workload.Op) (backend.RangeOp, error) {
	switch op {
	case workload.Gt:
		return backend.GT, nil
	case workload.Ge:
		return backend.GE, nil
	case workload.Lt:
		return backend.LT, nil
	case workload.Le:
		return backend.LE, nil
	default:
		return 0, fmt.Errorf("operator %v is not a range", op)
	}
}

// evalPredicates applies predicates to one tuple.
func evalPredicates(preds []workload.Predicate, t Tuple, params Params) (bool, error) {
	for _, p := range preds {
		have, ok := t[p.Ref.Attr.QualifiedName()]
		if !ok {
			return false, fmt.Errorf("tuple lacks attribute %s for filtering", p.Ref.Attr.QualifiedName())
		}
		want, ok := params[p.Param]
		if !ok {
			return false, fmt.Errorf("missing parameter ?%s", p.Param)
		}
		c := backend.CompareValues(have, want)
		var pass bool
		switch p.Op {
		case workload.Eq:
			pass = c == 0
		case workload.Gt:
			pass = c > 0
		case workload.Ge:
			pass = c >= 0
		case workload.Lt:
			pass = c < 0
		case workload.Le:
			pass = c <= 0
		}
		if !pass {
			return false, nil
		}
	}
	return true, nil
}

func sortTuples(tuples []Tuple, by []workload.AttrRef) {
	sort.SliceStable(tuples, func(i, j int) bool {
		for _, a := range by {
			av, bv := tuples[i][a.Attr.QualifiedName()], tuples[j][a.Attr.QualifiedName()]
			if av == nil || bv == nil {
				continue
			}
			if c := backend.CompareValues(av, bv); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// projectDistinct keeps only the selected attributes (plus ordering
// attributes) and removes duplicate rows, preserving order.
func projectDistinct(rows []Tuple, sel []workload.AttrRef, order []workload.AttrRef) []Tuple {
	cols := make([]string, 0, len(sel)+len(order))
	seenCol := map[string]bool{}
	for _, refs := range [][]workload.AttrRef{sel, order} {
		for _, r := range refs {
			n := r.Attr.QualifiedName()
			if !seenCol[n] {
				seenCol[n] = true
				cols = append(cols, n)
			}
		}
	}
	out := make([]Tuple, 0, len(rows))
	seen := map[string]bool{}
	for _, t := range rows {
		proj := make(Tuple, len(cols))
		key := ""
		for _, c := range cols {
			v := t[c]
			proj[c] = v
			key += backend.EncodeKey([]backend.Value{normalizeForKey(v)}) + "\x00"
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, proj)
	}
	return out
}

// normalizeForKey makes nil values encodable for deduplication.
func normalizeForKey(v backend.Value) backend.Value {
	if v == nil {
		return ""
	}
	return v
}

// attrZero returns the zero value for an attribute's type, used when an
// insert leaves cells unset.
func attrZero(a *model.Attribute) backend.Value {
	switch a.Type {
	case model.FloatType:
		return float64(0)
	case model.StringType:
		return ""
	case model.BooleanType:
		return false
	default:
		return int64(0)
	}
}

// valueOf reads an attribute's value from a tuple, applying overrides
// first and defaulting to the type's zero value.
func valueOf(t Tuple, a *model.Attribute, overrides Tuple) backend.Value {
	q := a.QualifiedName()
	if overrides != nil {
		if v, ok := overrides[q]; ok {
			return v
		}
	}
	if v, ok := t[q]; ok && v != nil {
		return v
	}
	return attrZero(a)
}

// ExecuteUpdate runs one update recommendation: support plans first to
// assemble the affected record contexts, then the delete and put
// requests against the maintained column family.
//
// When one statement maintains several column families, use
// ExecuteWrite instead: it performs every family's support reads before
// any family's writes, so maintenance of one family cannot destroy the
// data another family's support queries need.
func (e *Executor) ExecuteUpdate(ur *search.UpdateRecommendation, params Params) (*Result, error) {
	return e.ExecuteWrite([]*search.UpdateRecommendation{ur}, params)
}

// ExecuteWrite runs all maintenance of one statement execution across
// its column families: all support queries first, then all deletes and
// puts. On error the returned result, when non-nil, carries the
// simulated time consumed before the failure.
func (e *Executor) ExecuteWrite(urs []*search.UpdateRecommendation, params Params) (*Result, error) {
	type pending struct {
		ur                 *search.UpdateRecommendation
		tuples             []Tuple
		overrides          Tuple
		doDelete, doInsert bool
	}
	bgt := &stmtBudget{}
	sim := 0.0
	var last []Tuple
	staged := make([]pending, 0, len(urs))
	for _, ur := range urs {
		stmt := ur.Plan.Statement
		seeds, overrides, doDelete, doInsert, err := e.updateContext(stmt, params)
		if err != nil {
			e.eo.writeErrors.Inc()
			return &Result{SimMillis: sim}, err
		}
		tuples := seeds
		for _, sp := range ur.SupportPlans {
			res, err := e.run(sp.Steps, params, tuples, bgt)
			if res != nil {
				sim += res.SimMillis
			}
			if err != nil {
				e.eo.writeErrors.Inc()
				return &Result{SimMillis: sim}, fmt.Errorf("executor: support query for %q: %w", workload.Label(stmt), err)
			}
			tuples = res.Rows
		}
		staged = append(staged, pending{
			ur: ur, tuples: tuples, overrides: overrides,
			doDelete: doDelete, doInsert: doInsert,
		})
		last = tuples
	}

	for _, p := range staged {
		millis, err := e.applyWrites(p.ur, p.tuples, p.overrides, p.doDelete, p.doInsert, bgt)
		sim += millis
		if err != nil {
			e.eo.writeErrors.Inc()
			return &Result{SimMillis: sim}, err
		}
	}
	e.eo.writes.Inc()
	e.eo.writeLat.Observe(sim)
	return &Result{Rows: last, SimMillis: sim}, nil
}

// applyWrites issues the delete and put requests for one maintained
// column family given its context tuples. The returned millis are
// meaningful even on error.
func (e *Executor) applyWrites(ur *search.UpdateRecommendation, tuples []Tuple, overrides Tuple, doDelete, doInsert bool, bgt *stmtBudget) (float64, error) {
	sim := 0.0
	x := ur.Plan.Index
	for _, t := range tuples {
		if doDelete {
			partition, clustering := recordKey(x, t, nil)
			millis, err := e.retryOp(bgt, x.Name, func() (float64, error) {
				_, pr, err := e.store.Delete(x.Name, partition, clustering)
				if err != nil {
					return 0, err
				}
				return pr.SimMillis, nil
			})
			sim += millis
			if err != nil {
				return sim, err
			}
		}
		if doInsert {
			partition, clustering := recordKey(x, t, overrides)
			values := make([]backend.Value, len(x.Values))
			for i, a := range x.Values {
				values[i] = valueOf(t, a, overrides)
			}
			millis, err := e.retryOp(bgt, x.Name, func() (float64, error) {
				pr, err := e.store.Put(x.Name, partition, clustering, values)
				if err != nil {
					return 0, err
				}
				return pr.SimMillis, nil
			})
			sim += millis
			if err != nil {
				return sim, err
			}
		}
	}
	return sim, nil
}

// recordKey builds a record's partition and clustering keys from a
// context tuple.
func recordKey(x *schema.Index, t Tuple, overrides Tuple) (partition, clustering []backend.Value) {
	partition = make([]backend.Value, len(x.Partition))
	for i, a := range x.Partition {
		partition[i] = valueOf(t, a, overrides)
	}
	clustering = make([]backend.Value, len(x.Clustering))
	for i, a := range x.Clustering {
		clustering[i] = valueOf(t, a, overrides)
	}
	return partition, clustering
}

// updateContext derives the seed tuples, new-value overrides, and
// delete/insert behavior for a write statement.
func (e *Executor) updateContext(stmt workload.WriteStatement, params Params) (seeds []Tuple, overrides Tuple, doDelete, doInsert bool, err error) {
	seed := Tuple{}
	bind := func(a *model.Attribute, param string, into Tuple) error {
		v, ok := params[param]
		if !ok {
			return fmt.Errorf("executor: %q missing parameter ?%s", workload.Label(stmt), param)
		}
		into[a.QualifiedName()] = v
		return nil
	}
	switch st := stmt.(type) {
	case *workload.Update:
		doDelete, doInsert = true, true
		overrides = Tuple{}
		for _, asg := range st.Set {
			if err := bind(asg.Attr, asg.Param, overrides); err != nil {
				return nil, nil, false, false, err
			}
		}
		for _, p := range st.Where {
			if p.Op == workload.Eq && p.Ref.Attr == st.Entity().Key() {
				if err := bind(p.Ref.Attr, p.Param, seed); err != nil {
					return nil, nil, false, false, err
				}
			}
		}
	case *workload.Delete:
		doDelete = true
		for _, p := range st.Where {
			if p.Op == workload.Eq && p.Ref.Attr == st.Entity().Key() {
				if err := bind(p.Ref.Attr, p.Param, seed); err != nil {
					return nil, nil, false, false, err
				}
			}
		}
	case *workload.Insert:
		doInsert = true
		if err := bind(st.Entity.Key(), st.KeyParam, seed); err != nil {
			return nil, nil, false, false, err
		}
		for _, asg := range st.Set {
			if err := bind(asg.Attr, asg.Param, seed); err != nil {
				return nil, nil, false, false, err
			}
		}
		for _, c := range st.Connections {
			if err := bind(c.Edge.To.Key(), c.Param, seed); err != nil {
				return nil, nil, false, false, err
			}
		}
	case *workload.Connect:
		if st.Disconnect {
			doDelete = true
		} else {
			doInsert = true
		}
		if err := bind(st.Edge.From.Key(), st.FromParam, seed); err != nil {
			return nil, nil, false, false, err
		}
		if err := bind(st.Edge.To.Key(), st.ToParam, seed); err != nil {
			return nil, nil, false, false, err
		}
	default:
		return nil, nil, false, false, fmt.Errorf("executor: unsupported statement %T", stmt)
	}
	return []Tuple{seed}, overrides, doDelete, doInsert, nil
}
