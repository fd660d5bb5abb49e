package harness_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"nose/internal/backend"
	"nose/internal/baselines"
	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/model"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/workload"
)

// redundantFixture builds a one-entity model whose single query has two
// executable plans over two distinct column families — the smallest
// schema with enough redundancy to fail over.
type redundantFixture struct {
	sys    *harness.System
	query  *workload.Query
	plans  []*planner.Plan
	params executor.Params
}

func newRedundantFixture(t *testing.T, declare ...func(*harness.Config)) *redundantFixture {
	t.Helper()
	g := model.NewGraph()
	u := g.AddEntity("User", "UserID", 100)
	u.AddAttributeCard("UserCity", model.StringType, 3)
	u.AddAttribute("UserName", model.StringType)
	u.AddAttribute("UserEmail", model.StringType)

	q := workload.MustParseQuery(g, `SELECT User.UserName FROM User WHERE User.UserCity = ?city`)
	w := workload.New(g)
	w.Add(q, 1)

	city := u.Attribute("UserCity")
	name := u.Attribute("UserName")
	email := u.Attribute("UserEmail")
	pool := enumerator.NewPool()
	// Two column families both partitioned by city and both answering
	// the query: one narrow, one wide.
	if _, err := pool.Add(schema.New(model.NewPath(u),
		[]*model.Attribute{city}, []*model.Attribute{u.Key()}, []*model.Attribute{name})); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Add(schema.New(model.NewPath(u),
		[]*model.Attribute{city}, []*model.Attribute{u.Key()}, []*model.Attribute{name, email})); err != nil {
		t.Fatal(err)
	}

	ds := backend.NewDataset(g)
	for i := 0; i < 30; i++ {
		err := ds.AddEntity(u, map[string]backend.Value{
			"UserID":    i,
			"UserCity":  fmt.Sprintf("c%d", i%3),
			"UserName":  fmt.Sprintf("name%d", i),
			"UserEmail": fmt.Sprintf("mail%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	rec, err := baselines.Recommend(w, pool, cost.Default(), planner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := harness.Config{Name: "redundant", Rec: rec, Latency: cost.DefaultParams(), Dataset: ds}
	for _, d := range declare {
		d(&sc)
	}
	sys, err := harness.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	qr := rec.Queries[0]
	if len(qr.Alternatives) < 2 {
		t.Fatalf("fixture needs >= 2 alternative plans, got %d", len(qr.Alternatives))
	}
	return &redundantFixture{
		sys:    sys,
		query:  q,
		plans:  qr.Alternatives,
		params: executor.Params{"city": "c1"},
	}
}

// planCF returns the (single) column family a fixture plan reads.
func planCF(t *testing.T, p *planner.Plan) string {
	t.Helper()
	xs := p.Indexes()
	if len(xs) != 1 {
		t.Fatalf("fixture plan should read one column family, reads %d", len(xs))
	}
	return xs[0].Name
}

func TestFailoverPlansReturnIdenticalRows(t *testing.T) {
	f := newRedundantFixture(t)
	r0, err := f.sys.Exec.ExecuteQuery(f.plans[0], f.params)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := f.sys.Exec.ExecuteQuery(f.plans[1], f.params)
	if err != nil {
		t.Fatal(err)
	}
	if len(r0.Rows) == 0 {
		t.Fatal("fixture query returned no rows")
	}
	if c0, c1 := executor.CanonicalRows(r0.Rows), executor.CanonicalRows(r1.Rows); !reflect.DeepEqual(c0, c1) {
		t.Errorf("alternative plan rows differ:\n%v\n%v", c0, c1)
	}
}

func TestMarkDownFailsOverToSurvivingPlan(t *testing.T) {
	f := newRedundantFixture(t)
	ms, err := f.sys.ExecStatement(f.query, f.params)
	if err != nil || ms <= 0 {
		t.Fatalf("healthy execution: ms=%v err=%v", ms, err)
	}

	primary := planCF(t, f.plans[0])
	f.sys.MarkDown(primary)
	ms, err = f.sys.ExecStatement(f.query, f.params)
	if err != nil {
		t.Fatalf("failover execution: %v", err)
	}
	if ms <= 0 {
		t.Error("failover execution charged no time")
	}
	r := f.sys.Robustness()
	if r.Failovers == 0 {
		t.Error("no failover recorded for rerouted statement")
	}
	if r.DegradedStatements == 0 {
		t.Error("rerouted statement not counted as degraded")
	}

	// Recovery: marking the family back up restores the primary plan
	// path and stops accumulating failovers.
	f.sys.MarkUp(primary)
	before := f.sys.Robustness().Failovers
	if _, err := f.sys.ExecStatement(f.query, f.params); err != nil {
		t.Fatal(err)
	}
	if got := f.sys.Robustness().Failovers; got != before {
		t.Errorf("failovers grew after recovery: %d -> %d", before, got)
	}
}

func TestAllPlansDownYieldsErrUnavailable(t *testing.T) {
	f := newRedundantFixture(t)
	for _, p := range f.plans {
		for _, x := range p.Indexes() {
			f.sys.MarkDown(x.Name)
		}
	}
	_, err := f.sys.ExecStatement(f.query, f.params)
	if !errors.Is(err, harness.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	r := f.sys.Robustness()
	if r.Unavailable != 1 {
		t.Errorf("unavailable = %d, want 1", r.Unavailable)
	}
}

// TestInjectedUnavailabilityDiscoversFailover exercises the discovery
// path: the harness does not know the family is down (only the
// injector does), so the primary plan is attempted, fails Unavailable,
// and the statement reroutes — charging the wasted attempt.
func TestInjectedUnavailabilityDiscoversFailover(t *testing.T) {
	f := newRedundantFixture(t, familyWeather(1, faults.Profile{}))
	inj := f.sys.Faults()

	healthy, err := f.sys.ExecStatement(f.query, f.params)
	if err != nil {
		t.Fatal(err)
	}

	inj.MarkDown(planCF(t, f.plans[0]))
	ms, err := f.sys.ExecStatement(f.query, f.params)
	if err != nil {
		t.Fatalf("discovered failover: %v", err)
	}
	if ms <= healthy {
		t.Errorf("degraded execution (%.3fms) should cost more than healthy (%.3fms)", ms, healthy)
	}
	r := f.sys.Robustness()
	if r.Failovers == 0 {
		t.Error("no failover recorded")
	}
	if r.Injected.Unavailables == 0 {
		t.Error("injector counted no unavailability")
	}
}

// TestRetryExhaustionFailsOver drives a family that keeps throwing
// transient errors: the executor retries, gives up, and the harness
// reroutes to the healthy family.
func TestRetryExhaustionFailsOver(t *testing.T) {
	f := newRedundantFixture(t, familyWeather(1, faults.Profile{}))
	inj := f.sys.Faults()
	inj.SetProfile(planCF(t, f.plans[0]), faults.Profile{TransientRate: 1})

	ms, err := f.sys.ExecStatement(f.query, f.params)
	if err != nil {
		t.Fatalf("retry-exhausted failover: %v", err)
	}
	if ms <= 0 {
		t.Error("no time charged")
	}
	r := f.sys.Robustness()
	if r.Retries == 0 || r.RetryExhausted == 0 {
		t.Errorf("retry counters %+v, want retries and exhaustion", r)
	}
	if r.Failovers == 0 {
		t.Error("no failover recorded")
	}
	if r.BackoffMillis <= 0 || r.WastedMillis <= 0 {
		t.Error("retry latency not charged")
	}
}

// TestNewSystemSurfacesInstallErrors forces a column family name
// collision so dataset installation fails, and checks the error names
// the family and system instead of panicking or half-installing.
func TestNewSystemSurfacesInstallErrors(t *testing.T) {
	g := model.NewGraph()
	u := g.AddEntity("User", "UserID", 10)
	u.AddAttribute("UserName", model.StringType)
	u.AddAttribute("UserEmail", model.StringType)

	q := workload.MustParseQuery(g, `SELECT User.UserName FROM User WHERE User.UserID = ?id`)
	w := workload.New(g)
	w.Add(q, 1)

	pool := enumerator.NewPool()
	name := u.Attribute("UserName")
	email := u.Attribute("UserEmail")
	if _, err := pool.Add(schema.New(model.NewPath(u),
		[]*model.Attribute{u.Key()}, nil, []*model.Attribute{name})); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Add(schema.New(model.NewPath(u),
		[]*model.Attribute{u.Key()}, nil, []*model.Attribute{name, email})); err != nil {
		t.Fatal(err)
	}
	rec, err := baselines.Recommend(w, pool, cost.Default(), planner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	xs := rec.Schema.Indexes()
	if len(xs) < 2 {
		t.Fatalf("fixture needs 2 column families, got %d", len(xs))
	}
	xs[1].Name = xs[0].Name // simulate a naming collision

	ds := backend.NewDataset(g)
	if err := ds.AddEntity(u, map[string]backend.Value{"UserID": 1, "UserName": "n", "UserEmail": "e"}); err != nil {
		t.Fatal(err)
	}
	_, err = harness.NewSystem("broken", ds, rec, cost.DefaultParams())
	if err == nil {
		t.Fatal("NewSystem accepted a schema whose installation fails")
	}
}

// TestWriteToDownFamilyIsUnavailable checks the write path's explicit
// degradation: a write statement whose maintained family is down has no
// alternative plan and must fail with ErrUnavailable, not an opaque
// error.
func TestWriteToDownFamilyIsUnavailable(t *testing.T) {
	g := model.NewGraph()
	u := g.AddEntity("User", "UserID", 10)
	u.AddAttribute("UserName", model.StringType)

	q := workload.MustParseQuery(g, `SELECT User.UserName FROM User WHERE User.UserID = ?id`)
	ins := workload.MustParse(g, `INSERT INTO User SET UserID = ?id, UserName = ?name`)
	w := workload.New(g)
	w.Add(q, 1)
	w.Add(ins, 1)

	pool := enumerator.NewPool()
	if _, err := pool.Add(schema.New(model.NewPath(u),
		[]*model.Attribute{u.Key()}, nil, []*model.Attribute{u.Attribute("UserName")})); err != nil {
		t.Fatal(err)
	}
	rec, err := baselines.Recommend(w, pool, cost.Default(), planner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := backend.NewDataset(g)
	if err := ds.AddEntity(u, map[string]backend.Value{"UserID": 1, "UserName": "n"}); err != nil {
		t.Fatal(err)
	}
	sys, err := harness.New(harness.Config{
		Name: "writes", Rec: rec, Latency: cost.DefaultParams(), Dataset: ds,
		FamilyWeather: &harness.FamilyWeather{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	params := executor.Params{"id": int64(2), "name": "m"}
	if _, err := sys.ExecStatement(ins, params); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	sys.MarkDown(rec.Schema.Indexes()[0].Name)
	_, err = sys.ExecStatement(ins, executor.Params{"id": int64(3), "name": "p"})
	if !errors.Is(err, harness.ErrUnavailable) {
		t.Fatalf("write to down family: err = %v, want ErrUnavailable", err)
	}
	if r := sys.Robustness(); r.Unavailable == 0 {
		t.Error("unavailable write not counted")
	}
}

// TestTransientFaultRetriedInPlace checks the happy retry path: a
// modest transient rate is absorbed by retries without failing over,
// and the degraded statements cost more than healthy ones.
func TestTransientFaultRetriedInPlace(t *testing.T) {
	f := newRedundantFixture(t, familyWeather(1, faults.Profile{TransientRate: 0.3}))
	for i := 0; i < 50; i++ {
		if _, err := f.sys.ExecStatement(f.query, f.params); err != nil {
			t.Fatal(err)
		}
	}
	r := f.sys.Robustness()
	if r.Retries == 0 {
		t.Error("no retries at 30% transient rate over 50 statements")
	}
	if r.DegradedStatements == 0 || r.DegradedMillis <= 0 {
		t.Error("degraded statements not costed")
	}
}

// parkingKV scripts three gets over a healthy store: the first parks
// until released, the second fails with a transient fault, the rest
// pass through.
type parkingKV struct {
	backend.KVBackend
	gets            atomic.Int64
	parked, release chan struct{}
}

func (k *parkingKV) Get(name string, req backend.GetRequest) (*backend.GetResult, error) {
	switch k.gets.Add(1) {
	case 1:
		close(k.parked)
		<-k.release
	case 2:
		return nil, &faults.Error{Kind: faults.Transient, CF: name, Op: "get", Node: -1, SimMillis: 0.5}
	}
	return k.KVBackend.Get(name, req)
}

// TestDegradedCountsTheStatementsOwnRetries: whether a statement was
// degraded is a fact about that statement. B's only get is parked while
// A runs from start to finish with one retried get; B then completes
// without a fault of its own, so exactly one statement is degraded.
// (The harness used to compare two snapshots of the system-wide
// exec.retries counter around each statement, so A's retry, landing
// between B's snapshots, marked B degraded too.)
func TestDegradedCountsTheStatementsOwnRetries(t *testing.T) {
	f := newRedundantFixture(t)
	kv := &parkingKV{KVBackend: f.sys.Store, parked: make(chan struct{}), release: make(chan struct{})}
	f.sys.Exec = executor.NewRetrying(kv, cost.DefaultParams(), executor.DefaultRetryPolicy())
	f.sys.Exec.SetObs(f.sys.Obs())

	bDone := make(chan error)
	go func() {
		_, err := f.sys.ExecStatement(f.query, f.params)
		bDone <- err
	}()
	<-kv.parked
	if _, err := f.sys.ExecStatement(f.query, f.params); err != nil {
		t.Fatalf("statement A: %v", err)
	}
	close(kv.release)
	if err := <-bDone; err != nil {
		t.Fatalf("statement B: %v", err)
	}

	r := f.sys.Robustness()
	if r.Statements != 2 || r.Retries != 1 {
		t.Fatalf("fixture: %d statements, %d retries; want 2 and 1", r.Statements, r.Retries)
	}
	if r.DegradedStatements != 1 {
		t.Errorf("%d degraded statements, want 1: only A retried", r.DegradedStatements)
	}
}
