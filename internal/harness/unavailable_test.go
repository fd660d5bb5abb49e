package harness_test

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// queryFixture builds a one-entity model whose single query is answered
// by one column family: the one plan the advisor keeps, so a fault that
// outlives the executor's retries leaves the query nothing to run.
type queryFixture struct {
	sys    *harness.System
	query  *workload.Query
	cf     string // the family the query's plan reads
	params executor.Params
}

func newQueryFixture(t *testing.T, declare ...func(*harness.Config)) *queryFixture {
	t.Helper()
	g := model.NewGraph()
	u := g.AddEntity("User", "UserID", 100)
	u.AddAttributeCard("UserCity", model.StringType, 3)
	u.AddAttribute("UserName", model.StringType)

	q := workload.MustParseQuery(g, `SELECT User.UserName FROM User WHERE User.UserCity = ?city`)
	w := workload.New(g)
	w.Add(q, 1)

	pool := enumerator.NewPool()
	if _, err := pool.Add(schema.New(model.NewPath(u),
		[]*model.Attribute{u.Attribute("UserCity")}, []*model.Attribute{u.Key()},
		[]*model.Attribute{u.Attribute("UserName")})); err != nil {
		t.Fatal(err)
	}

	ds := backend.NewDataset(g)
	for i := 0; i < 30; i++ {
		err := ds.AddEntity(u, map[string]backend.Value{
			"UserID":   i,
			"UserCity": fmt.Sprintf("c%d", i%3),
			"UserName": fmt.Sprintf("name%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	rec, err := search.AdvisePinned(w, pool, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := harness.Config{Name: "one-plan", Rec: rec, Latency: cost.DefaultParams(), Dataset: ds}
	for _, d := range declare {
		d(&sc)
	}
	sys, err := harness.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	xs := rec.Queries[0].Plan.Indexes()
	if len(xs) != 1 {
		t.Fatalf("fixture plan should read one column family, reads %d", len(xs))
	}
	return &queryFixture{sys: sys, query: q, cf: xs[0].Name, params: executor.Bindings{"city": "c1"}}
}

// exec runs the fixture's query once and reports whether it was
// unavailable; any other error fails the test.
func (f *queryFixture) exec(t *testing.T) (ms float64, unavailable bool) {
	t.Helper()
	ms, err := f.sys.ExecStatement(f.query, f.params)
	if err != nil && !errors.Is(err, harness.ErrUnavailable) {
		t.Fatal(err)
	}
	return ms, err != nil
}

// TestMarkDownMakesQueryUnavailable: a marked-down family makes the
// query that reads it unavailable, and MarkUp serves it again.
func TestMarkDownMakesQueryUnavailable(t *testing.T) {
	f := newQueryFixture(t, familyWeather(1, faults.Profile{}))
	if ms, lost := f.exec(t); lost || ms <= 0 {
		t.Fatalf("healthy execution: ms=%v unavailable=%v", ms, lost)
	}
	f.sys.Faults().MarkDown(f.cf)
	if _, lost := f.exec(t); !lost {
		t.Fatal("query over a marked-down family was served")
	}
	f.sys.Faults().MarkUp(f.cf)
	if _, lost := f.exec(t); lost {
		t.Fatal("query unavailable after MarkUp")
	}
	if got := counter(t, f.sys, "harness.unavailable"); got != 1 {
		t.Errorf("harness.unavailable = %d, want 1", got)
	}
}

// TestAllPlansDownYieldsErrUnavailable: with the family of the query's
// one plan down the query fails with ErrUnavailable, which is counted
// as unavailable and, having retried nothing, not as degraded — as an
// unavailable write is not.
func TestAllPlansDownYieldsErrUnavailable(t *testing.T) {
	f := newQueryFixture(t, familyWeather(1, faults.Profile{}))
	f.sys.Faults().MarkDown(f.cf)
	_, err := f.sys.ExecStatement(f.query, f.params)
	if !errors.Is(err, harness.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if got := counter(t, f.sys, "harness.unavailable"); got != 1 {
		t.Errorf("harness.unavailable = %d, want 1", got)
	}
	if got := counter(t, f.sys, "harness.degraded_statements"); got != 0 {
		t.Errorf("harness.degraded_statements = %d, want 0", got)
	}
}

// TestInjectedUnavailabilityChargesWastedAttempt exercises discovery:
// the harness does not know the family is down (only the injector
// does), so the plan is attempted, fails Unavailable, and the wasted
// attempt's simulated time is charged to the unavailable statement.
func TestInjectedUnavailabilityChargesWastedAttempt(t *testing.T) {
	f := newQueryFixture(t, familyWeather(1, faults.Profile{}))
	f.sys.Faults().MarkDown(f.cf)
	ms, lost := f.exec(t)
	if !lost {
		t.Fatal("query over a down family was served")
	}
	if ms <= 0 {
		t.Error("the failed attempt charged no time")
	}
	if counter(t, f.sys, "faults.unavailables") != 1 {
		t.Error("injector did not count the one unavailable attempt")
	}
	if h := f.sys.Obs().Snapshot().Histograms["harness.statement.sim_ms"]; h.Count != 1 || h.Sum != ms {
		t.Errorf("statement latency histogram holds %d statements, %v ms; the statement returned %v ms", h.Count, h.Sum, ms)
	}
}

// TestRetryExhaustionIsUnavailable drives a family that keeps throwing
// transient errors: the executor retries, gives up, and the query is
// unavailable with every attempt and backoff charged to it.
func TestRetryExhaustionIsUnavailable(t *testing.T) {
	f := newQueryFixture(t, familyWeather(1, faults.Profile{}))
	f.sys.Faults().SetProfile(f.cf, faults.Profile{TransientRate: 1})

	ms, lost := f.exec(t)
	if !lost {
		t.Fatal("query over an always-failing family was served")
	}
	if retries, exhausted := counter(t, f.sys, "exec.retries"), counter(t, f.sys, "exec.retry_exhausted"); retries == 0 || exhausted != 1 {
		t.Errorf("%d retries, %d exhausted; want some and 1", retries, exhausted)
	}
	backoff, wasted := gauge(t, f.sys, "exec.backoff_sim_ms"), gauge(t, f.sys, "exec.wasted_sim_ms")
	if backoff <= 0 || wasted <= 0 {
		t.Fatalf("retry latency not charged: backoff %v, wasted %v", backoff, wasted)
	}
	if math.Abs(ms-(backoff+wasted)) > 1e-9 {
		t.Errorf("statement charged %v ms, its attempts and backoff %v", ms, backoff+wasted)
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
	rec, err := search.AdvisePinned(w, pool, search.Options{})
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
// degradation: a write statement whose maintained family is down must
// fail with ErrUnavailable, not an opaque error.
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
	rec, err := search.AdvisePinned(w, pool, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := backend.NewDataset(g)
	if err := ds.AddEntity(u, map[string]backend.Value{"UserID": 1, "UserName": "n"}); err != nil {
		t.Fatal(err)
	}
	sys, err := harness.New(harness.Config{
		Name: "writes", Rec: rec, Latency: cost.DefaultParams(), Dataset: ds,
		FamilyWeather: &harness.Weather{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	params := executor.Bindings{"id": int64(2), "name": "m"}
	if _, err := sys.ExecStatement(ins, params); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	sys.Faults().MarkDown(rec.Schema.Indexes()[0].Name)
	_, err = sys.ExecStatement(ins, executor.Bindings{"id": int64(3), "name": "p"})
	if !errors.Is(err, harness.ErrUnavailable) {
		t.Fatalf("write to down family: err = %v, want ErrUnavailable", err)
	}
	if counter(t, sys, "harness.unavailable") == 0 {
		t.Error("unavailable write not counted")
	}
}

// TestTransientFaultRetriedInPlace checks the happy retry path: a
// modest transient rate is absorbed by retries, and the degraded
// statements are costed.
func TestTransientFaultRetriedInPlace(t *testing.T) {
	f := newQueryFixture(t, familyWeather(1, faults.Profile{TransientRate: 0.3}))
	for i := 0; i < 50; i++ {
		if _, err := f.sys.ExecStatement(f.query, f.params); err != nil {
			t.Fatal(err)
		}
	}
	if counter(t, f.sys, "exec.retries") == 0 {
		t.Error("no retries at 30% transient rate over 50 statements")
	}
	if counter(t, f.sys, "harness.degraded_statements") == 0 || gauge(t, f.sys, "harness.degraded_sim_ms") <= 0 {
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
	f := newQueryFixture(t)
	kv := &parkingKV{KVBackend: f.sys.Store, parked: make(chan struct{}), release: make(chan struct{})}
	f.sys.Exec = executor.New(kv, cost.DefaultParams())
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

	if statements, retries := counter(t, f.sys, "harness.statements"), counter(t, f.sys, "exec.retries"); statements != 2 || retries != 1 {
		t.Fatalf("fixture: %d statements, %d retries; want 2 and 1", statements, retries)
	}
	if got := counter(t, f.sys, "harness.degraded_statements"); got != 1 {
		t.Errorf("%d degraded statements, want 1: only A retried", got)
	}
}
