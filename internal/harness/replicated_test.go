package harness_test

import (
	"errors"
	"fmt"
	"testing"

	"nose/internal/backend"
	"nose/internal/baselines"
	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/executor"
	"nose/internal/harness"
	"nose/internal/model"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// replFixture is a one-entity workload with a query and an insert,
// plus the pieces needed to build systems over it repeatedly.
type replFixture struct {
	ds     *backend.Dataset
	rec    *search.Recommendation
	query  *workload.Query
	insert workload.Statement
	params executor.Params
}

func newReplFixture(t *testing.T) *replFixture {
	t.Helper()
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
		t.Fatal(err)
	}
	rec, err := baselines.Recommend(w, pool, cost.Default(), planner.DefaultConfig())
	if err != nil {
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
	return &replFixture{
		ds:     ds,
		rec:    rec,
		query:  q,
		insert: ins,
		params: executor.Params{"city": "c1"},
	}
}

// system builds the system cfg declares over the fixture's dataset and
// recommendation.
func (f *replFixture) system(t *testing.T, cfg harness.Config) *harness.System {
	t.Helper()
	cfg.Rec, cfg.Latency, cfg.Dataset = f.rec, cost.DefaultParams(), f.ds
	sys, err := harness.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestReplicatedHealthyAllMatchesSingleStore pins the system-level
// equivalence invariant: a healthy replicated system at consistency ALL
// charges exactly the simulated time a single-store system charges for
// the same statements.
func TestReplicatedHealthyAllMatchesSingleStore(t *testing.T) {
	f := newReplFixture(t)
	single, err := harness.NewSystem("single", f.ds, f.rec, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	repl, err := harness.NewReplicatedSystem("repl", f.ds, f.rec, cost.DefaultParams(),
		harness.ReplicationConfig{Read: executor.All, Write: executor.All})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		sm, err := single.ExecStatement(f.query, f.params)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := repl.ExecStatement(f.query, f.params)
		if err != nil {
			t.Fatal(err)
		}
		if sm != rm {
			t.Fatalf("query %d: replicated %.6fms != single-store %.6fms", i, rm, sm)
		}
		wp := executor.Params{"id": int64(100 + i), "city": "c1", "name": "w"}
		sm, err = single.ExecStatement(f.insert, wp)
		if err != nil {
			t.Fatal(err)
		}
		rm, err = repl.ExecStatement(f.insert, wp)
		if err != nil {
			t.Fatal(err)
		}
		if sm != rm {
			t.Fatalf("insert %d: replicated %.6fms != single-store %.6fms", i, rm, sm)
		}
	}
}

// queryReplicas returns the replica set serving the fixture query's
// partition, plus the column family name.
func queryReplicas(t *testing.T, sys *harness.System, rec *search.Recommendation) (string, []int) {
	t.Helper()
	cf := rec.Schema.Indexes()[0].Name
	return cf, sys.Repl.ReplicasFor(cf, []backend.Value{"c1"})
}

// TestReplicatedNodeDownPerLevel is the acceptance scenario at harness
// level: with RF=3 and one replica node down, ONE and QUORUM statements
// keep succeeding with charged degraded latency while ALL reports
// unavailability.
func TestReplicatedNodeDownPerLevel(t *testing.T) {
	f := newReplFixture(t)
	for _, level := range []executor.Consistency{executor.One, executor.Quorum, executor.All} {
		sys := f.system(t, harness.Config{
			Name:        "repl",
			Replication: &harness.ReplicationConfig{Read: level, Write: level},
			NodeWeather: &harness.NodeWeather{Seed: 1},
		})
		healthy, err := sys.ExecStatement(f.query, f.params)
		if err != nil {
			t.Fatalf("%v healthy: %v", level, err)
		}

		_, replicas := queryReplicas(t, sys, f.rec)
		if err := sys.MarkNodeDown(replicas[0]); err != nil {
			t.Fatal(err)
		}
		ms, err := sys.ExecStatement(f.query, f.params)
		if level == executor.All {
			if !errors.Is(err, harness.ErrUnavailable) {
				t.Fatalf("ALL with a replica down: err = %v, want ErrUnavailable", err)
			}
			if r := sys.Robustness(); r.Unavailable == 0 || r.Replica.ReadUnavailable == 0 {
				t.Errorf("ALL: unavailability not counted: %+v", r)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v with a replica down: %v", level, err)
		}
		if ms <= healthy {
			t.Errorf("%v degraded query %.4fms not above healthy %.4fms", level, ms, healthy)
		}

		// The down replica misses the write; hinted handoff queues it.
		wp := executor.Params{"id": int64(200), "city": "c1", "name": "w"}
		if _, err := sys.ExecStatement(f.insert, wp); err != nil {
			t.Fatalf("%v write with a replica down: %v", level, err)
		}
		r := sys.Robustness()
		if r.Replica.HintsQueued == 0 {
			t.Errorf("%v: write missed a replica but queued no hint", level)
		}
		if r.NodeFaults.DownRejections == 0 {
			t.Errorf("%v: node fault counters empty: %+v", level, r.NodeFaults)
		}

		// Recovery: the node returns, hints replay, and stale reads stop
		// accumulating.
		if err := sys.MarkNodeUp(replicas[0]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := sys.ExecStatement(f.query, f.params); err != nil {
				t.Fatal(err)
			}
		}
		r = sys.Robustness()
		if r.Replica.HintsReplayed != r.Replica.HintsQueued {
			t.Errorf("%v: %d hints queued but %d replayed after recovery",
				level, r.Replica.HintsQueued, r.Replica.HintsReplayed)
		}
		stale := r.Replica.StaleReads
		for i := 0; i < 3; i++ {
			if _, err := sys.ExecStatement(f.query, f.params); err != nil {
				t.Fatal(err)
			}
		}
		if got := sys.Robustness().Replica.StaleReads; got != stale {
			t.Errorf("%v: stale reads still growing after recovery: %d -> %d", level, stale, got)
		}
	}
}

// TestMarkNodeDownRequiresNodeFaults: marking nodes needs the fault set.
func TestMarkNodeDownRequiresNodeFaults(t *testing.T) {
	f := newReplFixture(t)
	sys, err := harness.NewReplicatedSystem("repl", f.ds, f.rec, cost.DefaultParams(), harness.ReplicationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.MarkNodeDown(0); err == nil {
		t.Error("MarkNodeDown without declared node weather should fail")
	}
	if err := sys.MarkNodeUp(0); err == nil {
		t.Error("MarkNodeUp without declared node weather should fail")
	}
}

// TestFamilyFaultsLayerOverReplication: the per-family injector still
// wraps a replicated system's coordinator, so column-family weather and
// plan-level failover work on top of replication.
func TestFamilyFaultsLayerOverReplication(t *testing.T) {
	f := newReplFixture(t)
	sys := f.system(t, harness.Config{
		Name:          "repl",
		Replication:   &harness.ReplicationConfig{Read: executor.Quorum, Write: executor.Quorum},
		FamilyWeather: &harness.FamilyWeather{Seed: 1},
	})
	inj := sys.Faults()
	cf := f.rec.Schema.Indexes()[0].Name
	inj.MarkDown(cf)
	_, err := sys.ExecStatement(f.query, f.params)
	if !errors.Is(err, harness.ErrUnavailable) {
		t.Fatalf("query against a down family on a replicated system: err = %v, want ErrUnavailable", err)
	}
	inj.MarkUp(cf)
	if _, err := sys.ExecStatement(f.query, f.params); err != nil {
		t.Fatalf("after family recovery: %v", err)
	}
}
