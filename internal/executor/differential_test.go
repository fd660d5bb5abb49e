package executor_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"nose/internal/backend"
	"nose/internal/baselines"
	"nose/internal/bip"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/workload"
)

// oracleMismatch compares a query's rows with executor.Oracle over the
// dataset by the rule bench/dataplane.go uses: a LIMIT leaves the
// choice of rows to the plan, so a limited query must return the right
// number of rows, all of them from the unlimited answer.
func oracleMismatch(ds *backend.Dataset, q *workload.Query, params executor.Params, got []executor.Tuple) string {
	unlimited := *q
	unlimited.Limit = 0
	all, err := executor.Oracle(ds, &unlimited, params)
	if err != nil {
		return err.Error()
	}
	have, want := executor.CanonicalRows(got), executor.CanonicalRows(all)
	if q.Limit == 0 {
		if !slices.Equal(have, want) {
			return fmt.Sprintf("returned %d rows that differ from the oracle's %d\ngot:  %v\nwant: %v", len(have), len(want), have, want)
		}
		return ""
	}
	if len(have) != min(q.Limit, len(want)) {
		return fmt.Sprintf("returned %d rows of the oracle's %d under LIMIT %d", len(have), len(want), q.Limit)
	}
	for _, row := range have {
		if !slices.Contains(want, row) {
			return "returned a row the oracle does not have: " + row
		}
	}
	return ""
}

// failoverList is a query's plans as the harness ranks them: the
// recommended plan, then every other executable alternative.
func failoverList(qr *search.QueryRecommendation) []*planner.Plan {
	list := []*planner.Plan{qr.Plan}
	for _, p := range qr.Alternatives {
		if p != qr.Plan {
			list = append(list, p)
		}
	}
	return list
}

// onPath reports whether every column family the plan reads lies on
// the query's own path. A failover alternative that detours through a
// family over further entities is an inner join with them and drops the
// rows that have no partner there, so it is held to the reference
// interpreter only, not to the oracle (ROADMAP records the defect; it is
// the planner's, and as old as the alternatives).
func onPath(plan *planner.Plan, q *workload.Query) bool {
	for _, x := range plan.Indexes() {
		for _, e := range x.Path.Entities() {
			if !q.Path.Contains(e) {
				return false
			}
		}
	}
	return true
}

// recorder is a KVBackend that logs every call and keeps the slices a
// put or delete handed it, the way the store, the hint queues and the
// verifier do.
type recorder struct {
	backend.KVBackend
	log  []string
	kept []keptCall
}

type keptCall struct {
	at    int // index into log
	op    string
	cells [3][]backend.Value
}

func (r *recorder) note(op string, partition, clustering, values []backend.Value) {
	k := keptCall{at: len(r.log), op: op, cells: [3][]backend.Value{partition, clustering, values}}
	r.log = append(r.log, k.String())
	if op[0] != 'g' {
		r.kept = append(r.kept, k)
	}
}

func (k keptCall) String() string {
	s := k.op
	for _, cells := range k.cells {
		s += " |"
		for _, c := range cells {
			s += fmt.Sprintf(" %T:%v", c, c)
		}
	}
	return s
}

func (r *recorder) Get(cf string, req backend.GetRequest) (*backend.GetResult, error) {
	r.note("get "+cf, req.Partition, nil, nil)
	return r.KVBackend.Get(cf, req)
}

func (r *recorder) Put(cf string, partition, clustering, values []backend.Value) (*backend.PutResult, error) {
	r.note("put "+cf, partition, clustering, values)
	return r.KVBackend.Put(cf, partition, clustering, values)
}

func (r *recorder) Delete(cf string, partition, clustering []backend.Value) (bool, *backend.PutResult, error) {
	r.note("delete "+cf, partition, clustering, nil)
	return r.KVBackend.Delete(cf, partition, clustering)
}

// mutated names the first put or delete whose cells no longer read as
// they did when the call was made — a later statement wrote into a
// slice the executor had handed over.
func (r *recorder) mutated() string {
	for _, k := range r.kept {
		if now := k.String(); now != r.log[k.at] {
			return fmt.Sprintf("%q became %q", r.log[k.at], now)
		}
	}
	return ""
}

// twin is one recommendation installed twice from the same dataset: one
// store under the compiled executor, one under the reference
// interpreter, both behind recorders.
type twin struct {
	ds       *backend.Dataset
	rec      *search.Recommendation
	ex       *executor.Executor
	ref      *refExecutor
	exLog    *recorder
	refLog   *recorder
	checked  int // plans compared with the reference
	oracled  int // of which also compared with the oracle
	failover int // oracle-checked plans that were not the recommended one
}

func newTwin(t *testing.T, ds *backend.Dataset, rec *search.Recommendation) *twin {
	t.Helper()
	install := func() *recorder {
		store := backend.NewStore(cost.DefaultParams())
		for _, x := range rec.Schema.Indexes() {
			must(t, ds.Install(store, x))
		}
		return &recorder{KVBackend: store}
	}
	tw := &twin{ds: ds, rec: rec, exLog: install(), refLog: install()}
	tw.ex = executor.New(tw.exLog, cost.DefaultParams())
	tw.ref = &refExecutor{store: tw.refLog, lat: cost.DefaultParams()}
	return tw
}

// checkAllPlans runs every plan of every query's failover list through
// both executors: rows in order and simulated time bit for bit against
// the reference, and against the oracle over the dataset's current
// contents for the recommended plan and every alternative on the
// query's path.
func (tw *twin) checkAllPlans(t *testing.T, when string, params executor.Params) {
	t.Helper()
	for _, qr := range tw.rec.Queries {
		tw.checkPlans(t, when, qr, params)
	}
}

// checkPlans is checkAllPlans for one query.
func (tw *twin) checkPlans(t *testing.T, when string, qr *search.QueryRecommendation, params executor.Params) {
	t.Helper()
	q := qr.Statement.Statement.(*workload.Query)
	for rank, plan := range failoverList(qr) {
		got, err := tw.ex.ExecuteQuery(plan, params)
		if err != nil {
			t.Fatalf("%s: %s: %v\nplan:\n%s", when, workload.Label(q), err, plan)
		}
		want, sim, err := tw.ref.query(plan, params)
		if err != nil {
			t.Fatalf("%s: %s: reference: %v\nplan:\n%s", when, workload.Label(q), err, plan)
		}
		if msg := sameRows(got.Rows, want); msg != "" {
			t.Errorf("%s: %s rank %d: %s\nplan:\n%s", when, workload.Label(q), rank, msg, plan)
		}
		if math.Float64bits(got.SimMillis) != math.Float64bits(sim) {
			t.Errorf("%s: %s rank %d: SimMillis %v, reference %v\nplan:\n%s", when, workload.Label(q), rank, got.SimMillis, sim, plan)
		}
		tw.checked++
		if rank > 0 && !onPath(plan, q) {
			continue
		}
		if msg := oracleMismatch(tw.ds, q, params, got.Rows); msg != "" {
			t.Errorf("%s: %s rank %d: %s\nplan:\n%s", when, workload.Label(q), rank, msg, plan)
		}
		tw.oracled++
		if rank > 0 {
			tw.failover++
		}
	}
}

// write executes one write statement on both sides and mirrors it into
// the dataset: same simulated time bit for bit, and the same gets, puts
// and deletes with the same cells in the same order — so every support
// read still precedes every write.
func (tw *twin) write(t *testing.T, st workload.Statement, params executor.Params) {
	t.Helper()
	var urs []*search.UpdateRecommendation
	for _, ur := range tw.rec.Updates {
		if ur.Statement.Statement == st {
			urs = append(urs, ur)
		}
	}
	if len(urs) > 0 {
		res, err := tw.ex.ExecuteWrite(urs, params)
		if err != nil {
			t.Fatalf("%s: %v", workload.Label(st), err)
		}
		if res.Rows != nil {
			t.Errorf("%s: a write returned %d rows", workload.Label(st), len(res.Rows))
		}
		sim, err := tw.ref.write(urs, params)
		if err != nil {
			t.Fatalf("%s: reference: %v", workload.Label(st), err)
		}
		if math.Float64bits(res.SimMillis) != math.Float64bits(sim) {
			t.Errorf("%s: SimMillis %v, reference %v", workload.Label(st), res.SimMillis, sim)
		}
		if !slices.Equal(tw.exLog.log, tw.refLog.log) {
			n := 0
			for n < len(tw.exLog.log) && n < len(tw.refLog.log) && tw.exLog.log[n] == tw.refLog.log[n] {
				n++
			}
			t.Fatalf("%s: store calls differ from the reference's at call %d:\ngot:  %q\nwant: %q",
				workload.Label(st), n, tw.exLog.log[n:], tw.refLog.log[n:])
		}
	}
	must(t, mirror(tw.ds, st, params))
}

// mirror applies a write statement to the base dataset, so that the
// oracle answers over the data the executor's writes should have left.
func mirror(ds *backend.Dataset, st workload.Statement, p executor.Params) error {
	keyOf := func(where []workload.Predicate, key string) backend.Value {
		for _, w := range where {
			if w.Op == workload.Eq && w.Ref.Attr.Name == key {
				return p[w.Param]
			}
		}
		return nil
	}
	switch s := st.(type) {
	case *workload.Insert:
		row := map[string]backend.Value{s.Entity.Key().Name: p[s.KeyParam]}
		for _, a := range s.Set {
			row[a.Attr.Name] = p[a.Param]
		}
		if err := ds.AddEntity(s.Entity, row); err != nil {
			return err
		}
		for _, c := range s.Connections {
			if err := ds.Connect(c.Edge, p[s.KeyParam], p[c.Param]); err != nil {
				return err
			}
		}
		return nil
	case *workload.Update:
		attrs := map[string]backend.Value{}
		for _, a := range s.Set {
			attrs[a.Attr.Name] = p[a.Param]
		}
		return ds.UpdateEntity(s.Entity(), keyOf(s.Where, s.Entity().Key().Name), attrs)
	case *workload.Delete:
		return ds.RemoveEntity(s.Entity(), keyOf(s.Where, s.Entity().Key().Name))
	case *workload.Connect:
		if s.Disconnect {
			return ds.Disconnect(s.Edge, p[s.FromParam], p[s.ToParam])
		}
		return ds.Connect(s.Edge, p[s.FromParam], p[s.ToParam])
	}
	return fmt.Errorf("mirror: unsupported statement %T", st)
}

// rubisRecommendations builds the three schemas Fig. 11 compares.
var rubisRecommendations = []struct {
	name      string
	recommend func(*workload.Workload) (*search.Recommendation, error)
}{
	{"NoSE", func(w *workload.Workload) (*search.Recommendation, error) {
		return search.Advise(w, search.Options{
			Planner:         planner.Config{MaxPlansPerQuery: 24},
			MaxSupportPlans: 6,
			BIP:             bip.Options{MaxNodes: 300, Gap: 0.01},
		})
	}},
	{"Normalized", func(w *workload.Workload) (*search.Recommendation, error) {
		pool, err := baselines.Normalized(w)
		if err != nil {
			return nil, err
		}
		return baselines.Recommend(w, pool, cost.Default(), planner.DefaultConfig())
	}},
	{"Expert", func(w *workload.Workload) (*search.Recommendation, error) {
		pool, err := baselines.ExpertRUBiS(w.Graph)
		if err != nil {
			return nil, err
		}
		return baselines.Recommend(w, pool, cost.Default(), planner.DefaultConfig())
	}},
}

// TestCompiledPlansMatchOracle is the differential check of the
// compiled executor: on the NoSE, normalized and expert RUBiS schemas,
// every query's every plan — the recommended one and each failover
// alternative — under six seeded bindings, against the map-row
// reference interpreter (rows in order, SimMillis bit for bit) and
// against executor.Oracle; then every write statement executed on both
// sides (same puts and deletes, same SimMillis) and mirrored into the
// dataset, with every plan re-checked under the written transaction's
// own bindings — the ones that reach the rows just written — after
// each transaction.
func TestCompiledPlansMatchOracle(t *testing.T) {
	cfg := rubis.Config{Users: 300, Seed: 7}
	alternatives := 0
	for _, schema := range rubisRecommendations {
		t.Run(schema.name, func(t *testing.T) {
			// Writes mutate the dataset, so each schema gets its own.
			ds, err := rubis.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, txns, err := rubis.Workload(ds.Graph)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := schema.recommend(w)
			if err != nil {
				t.Fatal(err)
			}
			tw := newTwin(t, ds, rec)
			ps := rubis.NewParamSource(cfg, 99)
			for i := 0; i < 6; i++ {
				tw.checkAllPlans(t, fmt.Sprintf("binding %d", i), ps.Params(""))
			}
			for _, txn := range txns {
				if !txn.HasWrites {
					continue
				}
				params := ps.Params(txn.Name)
				for _, st := range txn.Statements {
					if _, ok := st.(workload.WriteStatement); ok {
						tw.write(t, st, params)
					}
				}
				tw.checkAllPlans(t, "after "+txn.Name, params)
			}
			if len(tw.exLog.kept) == 0 {
				t.Fatal("no put or delete was issued")
			}
			tw.checkAllPlans(t, "after all writes", ps.Params(""))
			if msg := tw.exLog.mutated(); msg != "" {
				t.Errorf("a put or delete's cells changed after the call returned: %s", msg)
			}
			t.Logf("%d plan executions checked against the reference, %d against the oracle (%d alternatives), %d puts and deletes",
				tw.checked, tw.oracled, tw.failover, len(tw.exLog.kept))
			alternatives += tw.failover
		})
	}
	if alternatives == 0 {
		t.Error("no failover alternative was checked against the oracle on any schema")
	}
}

// TestConcurrentQueriesShareNoScratch runs eight goroutines of
// ExecuteQuery on one executor over a read-only store — each walking
// every plan of the normalized and expert RUBiS schemas' failover lists
// from a different starting point — and requires every result to equal
// the one a single goroutine got: a pooled scratch arena must never be
// visible to two calls, and a returned row must never alias one. Run
// under -race in CI.
func TestConcurrentQueriesShareNoScratch(t *testing.T) {
	cfg := rubis.Config{Users: 300, Seed: 7}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		plan   *planner.Plan
		params executor.Params
		rows   []string // name=value; pairs row by row, in result order
		sim    float64
	}
	render := func(res *executor.Result) []string {
		out := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = executor.CanonicalRows([]executor.Tuple{row})[0]
		}
		return out
	}
	for _, schema := range rubisRecommendations[1:] {
		rec, err := schema.recommend(w)
		if err != nil {
			t.Fatal(err)
		}
		store := backend.NewStore(cost.DefaultParams())
		for _, x := range rec.Schema.Indexes() {
			must(t, ds.Install(store, x))
		}
		ex := executor.New(store, cost.DefaultParams())
		ps := rubis.NewParamSource(cfg, 5)
		var calls []call
		for i := 0; i < 3; i++ {
			params := ps.Params("")
			for _, qr := range rec.Queries {
				for _, plan := range failoverList(qr) {
					res, err := ex.ExecuteQuery(plan, params)
					if err != nil {
						t.Fatal(err)
					}
					calls = append(calls, call{plan, params, render(res), res.SimMillis})
				}
			}
		}
		// The single-threaded results themselves must have survived the
		// calls that followed them on the same scratch.
		var held []*executor.Result
		for _, c := range calls[:20] {
			res, _ := ex.ExecuteQuery(c.plan, c.params)
			held = append(held, res)
		}
		for i, res := range held {
			if !slices.Equal(render(res), calls[i].rows) {
				t.Fatalf("%s: a held result changed after later calls", schema.name)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range calls {
					c := calls[(i+g*len(calls)/8)%len(calls)]
					res, err := ex.ExecuteQuery(c.plan, c.params)
					if err != nil {
						t.Errorf("%s: goroutine %d: %v", schema.name, g, err)
						return
					}
					if res.SimMillis != c.sim || !slices.Equal(render(res), c.rows) {
						t.Errorf("%s: goroutine %d: %s returned %d rows in %v ms, alone it returned %d in %v",
							schema.name, g, workload.Label(c.plan.Query), len(res.Rows), res.SimMillis, len(c.rows), c.sim)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
