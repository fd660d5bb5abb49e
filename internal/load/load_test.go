package load_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/executor"
	"nose/internal/harness"
	"nose/internal/load"
	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// fixture is a one-entity workload (a query and an insert) plus the
// pieces to build fresh replicated systems over it.
type fixture struct {
	ds   *backend.Dataset
	rec  *search.Recommendation
	txns []load.Transaction
	next int64
}

func newFixture(tb testing.TB) *fixture {
	tb.Helper()
	g := model.NewGraph()
	u := g.AddEntity("User", "UserID", 100)
	u.AddAttributeCard("UserCity", model.StringType, 3)
	u.AddAttribute("UserName", model.StringType)

	q := workload.MustParseQuery(g, `SELECT User.UserName FROM User WHERE User.UserCity = ?city`)
	ins := workload.MustParse(g, `INSERT INTO User SET UserID = ?id, UserCity = ?city, UserName = ?name`)
	w := workload.New(g)
	w.Add(q, 1)
	w.Add(ins, 1)

	pool := enumerator.NewPool()
	if _, err := pool.Add(schema.New(model.NewPath(u),
		[]*model.Attribute{u.Attribute("UserCity")},
		[]*model.Attribute{u.Key()},
		[]*model.Attribute{u.Attribute("UserName")})); err != nil {
		tb.Fatal(err)
	}
	rec, err := search.AdvisePinned(w, pool, search.Options{})
	if err != nil {
		tb.Fatal(err)
	}

	ds := backend.NewDataset(g)
	for i := 0; i < 30; i++ {
		err := ds.AddEntity(u, map[string]backend.Value{
			"UserID":   i,
			"UserCity": fmt.Sprintf("c%d", i%3),
			"UserName": fmt.Sprintf("name%d", i),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return &fixture{
		ds:  ds,
		rec: rec,
		txns: []load.Transaction{
			{Name: "browse", Statements: []workload.Statement{q}, Weight: 0.8},
			{Name: "register", Statements: []workload.Statement{ins}, Weight: 0.2},
		},
	}
}

// params supplies deterministic bindings: cities cycle, insert IDs
// count upward. Stateful on purpose — the load generator promises to
// call it in deterministic event order.
func (f *fixture) params(txn string) executor.Params {
	f.next++
	city := fmt.Sprintf("c%d", f.next%3)
	if txn == "register" {
		return executor.Bindings{"id": 1000 + f.next, "city": city, "name": "w"}
	}
	return executor.Bindings{"city": city}
}

// system builds a fresh replicated system with queues of the given
// per-node capacity attached (capacity < 0 means no queues).
func (f *fixture) system(tb testing.TB, level executor.Consistency, capacity int) (*harness.System, *backend.NodeQueues) {
	tb.Helper()
	sys, err := harness.NewReplicatedSystem("load", f.ds, f.rec, cost.DefaultParams(),
		harness.ReplicationConfig{Read: level, Write: level})
	if err != nil {
		tb.Fatal(err)
	}
	if capacity < 0 {
		return sys, nil
	}
	return sys, sys.EnableQueues(capacity)
}

// TestRunDeterministic pins the reproducibility contract: the same
// seed over fresh systems yields identical Results, field for field.
func TestRunDeterministic(t *testing.T) {
	opts := load.Options{Clients: 8, ThinkMillis: 2, HorizonMillis: 400, WarmupMillis: 40, Seed: 11}
	run := func() *load.Result {
		f := newFixture(t)
		sys, q := f.system(t, executor.Quorum, 1)
		r, err := load.Run(sys, f.txns, f.params, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if a.Completed == 0 || a.Measured == 0 {
		t.Fatalf("run measured nothing: %+v", a)
	}
}

// TestClosedLoopContention pins the load model's point: growing the
// closed-loop population on single-server nodes drives queue delay and
// tail latency up, while an unqueued system stays flat.
func TestClosedLoopContention(t *testing.T) {
	f := newFixture(t)
	run := func(clients, capacity int) *load.Result {
		sys, q := f.system(t, executor.Quorum, capacity)
		r, err := load.Run(sys, f.txns, f.params, q, load.Options{
			Clients: clients, ThinkMillis: 2, HorizonMillis: 400, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	light := run(1, 1)
	heavy := run(32, 1)
	if heavy.P99Millis <= light.P99Millis {
		t.Errorf("p99 did not rise under load: 1 client %.3fms, 32 clients %.3fms",
			light.P99Millis, heavy.P99Millis)
	}
	if heavy.QueueDelayMillis <= 0 || heavy.MaxUtilization <= light.MaxUtilization {
		t.Errorf("no contention at 32 clients: %+v", heavy)
	}
	unqueued := run(32, -1)
	if unqueued.QueueDelayMillis != 0 {
		t.Errorf("unqueued run charged queue delay: %+v", unqueued)
	}
	if unqueued.P99Millis >= heavy.P99Millis {
		t.Errorf("queues did not add latency: unqueued p99 %.3fms >= queued %.3fms",
			unqueued.P99Millis, heavy.P99Millis)
	}
}

// TestZeroCapacityBoundary is the exact-boundary acceptance test:
// capacity 1 serves every transaction, capacity 0 surfaces
// harness.ErrUnavailable through the coordinator for every one — both
// via ExecStatement directly and through a whole load run.
func TestZeroCapacityBoundary(t *testing.T) {
	f := newFixture(t)
	opts := load.Options{Clients: 4, ThinkMillis: 2, HorizonMillis: 200, Seed: 7}

	sys, q := f.system(t, executor.Quorum, 1)
	r, err := load.Run(sys, f.txns, f.params, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Unavailable != 0 || r.Completed == 0 {
		t.Fatalf("capacity 1: %+v, want all completed", r)
	}

	sys, q = f.system(t, executor.Quorum, 0)
	if _, err := sys.ExecStatement(f.txns[0].Statements[0], executor.Bindings{"city": "c1"}); !errors.Is(err, harness.ErrUnavailable) {
		t.Fatalf("zero-capacity ExecStatement: err = %v, want harness.ErrUnavailable", err)
	}
	r, err = load.Run(sys, f.txns, f.params, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 0 || r.Unavailable == 0 || r.Unavailable != r.Started {
		t.Fatalf("capacity 0: %+v, want every started transaction unavailable", r)
	}
}

// TestRunOptionValidation pins the option errors.
func TestRunOptionValidation(t *testing.T) {
	f := newFixture(t)
	sys, q := f.system(t, executor.One, 1)
	cases := []load.Options{
		{},                   // no horizon
		{HorizonMillis: 100}, // no clients
		{HorizonMillis: 100, Clients: 1, WarmupMillis: 100}, // warmup >= horizon
	}
	for i, opts := range cases {
		if _, err := load.Run(sys, f.txns, f.params, q, opts); err == nil {
			t.Errorf("case %d: Run(%+v) succeeded, want error", i, opts)
		}
	}
	if _, err := load.Run(sys, nil, f.params, q, load.Options{HorizonMillis: 100, Clients: 1}); err == nil {
		t.Error("Run with no transactions succeeded, want error")
	}
}
