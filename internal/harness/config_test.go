package harness_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/migrate"
	"nose/internal/search"
	"nose/internal/verify"
	"nose/internal/workload"
)

// TestConfigPutsEveryLayerInThePath: one declaration naming a verifier,
// node weather and family weather builds a stack with every layer
// visibly in the path — the family injector sees operations and injects
// faults, the node fault set sees replica operations, the executor
// retries, the tap acknowledges rows — and an injected failure is never
// recorded as an acknowledged write, so the verifier finds nothing
// lost. The same declaration twice gives the same seeded run. (Before
// Config, three setters in six orders had to agree on this stack.)
func TestConfigPutsEveryLayerInThePath(t *testing.T) {
	f := newReplFixture(t)
	type outcome struct {
		millis float64
		failed int
		robust harness.RobustnessReport
		acked  int
	}
	run := func() outcome {
		sys := f.system(t, harness.Config{
			Name:          "repl",
			Replication:   &harness.ReplicationConfig{Read: executor.Quorum, Write: executor.Quorum},
			NodeWeather:   &harness.NodeWeather{Seed: 11, Profile: faults.NodeRate(0.15)},
			FamilyWeather: &harness.FamilyWeather{Seed: 7, Profile: faults.Rate(0.3)},
			Verifier:      verify.New(),
		})
		var out outcome
		for i := 0; i < 40; i++ {
			var st workload.Statement = f.query
			params := f.params
			if i%2 == 1 {
				st = f.insert
				params = executor.Params{"id": int64(1000 + i), "city": "c1", "name": fmt.Sprintf("w%d", i)}
			}
			ms, err := sys.ExecStatement(st, params)
			out.millis += ms
			if err != nil {
				out.failed++
			}
		}
		report, err := sys.VerifyCheck()
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() {
			t.Errorf("verifier violations:\n%s", report.Format())
		}
		out.robust, out.acked = sys.Robustness(), report.AckedRows
		return out
	}

	want := run()
	r := want.robust
	if r.Injected.Ops == 0 || r.Injected.Transients == 0 || r.NodeFaults.Ops == 0 || r.Retries == 0 || want.acked == 0 {
		t.Fatalf("a layer is missing from the stack: %+v, %d acked rows", r, want.acked)
	}
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Errorf("same declaration, different run:\n got %+v\nwant %+v", got, want)
	}
}

// TestBackfillCrossesTheDeclaredStack: a live migration's copy is
// traffic like any other, so it crosses every declared layer however
// late the weather turns. A family marked down after the migration
// started fails its backfill puts at the injector and the migration
// aborts; a healthy migration acknowledges every backfilled row to the
// verifier. (When layers could be added after StartLiveMigration, the
// controller kept writing through the stack it was started on: the
// migration of a down family reported done with faults.ops == 0.)
func TestBackfillCrossesTheDeclaredStack(t *testing.T) {
	for _, down := range []bool{true, false} {
		ds, _, rec, sys, _ := liveFixture(t, familyWeather(7, faults.Profile{}),
			func(c *harness.Config) { c.Verifier = verify.New() })
		ctrl, err := sys.StartLiveMigration(ds,
			&search.PhaseRecommendation{Rec: rec, Build: rec.Schema.Indexes()},
			migrate.LiveOptions{ChunkRecords: 40, FaultBudget: 3, Params: migrate.DefaultCostParams()})
		if err != nil {
			t.Fatal(err)
		}
		total := int64(ctrl.Progress().TotalRecords)
		if down {
			sys.MarkDown(ctrl.Building()[0])
		}
		st, err := sys.DrainLiveMigration(0)
		ops := sys.Obs().Counter("faults.ops").Value()
		if down {
			if !errors.Is(err, migrate.ErrAborted) || st != migrate.StateAborted {
				t.Errorf("migration of a down family: state %v, err %v, want an abort", st, err)
			}
			if ops == 0 || sys.Faults().Counts().Unavailables == 0 {
				t.Errorf("backfill bypassed the injector: faults.ops = %d, counts %+v", ops, sys.Faults().Counts())
			}
			continue
		}
		if err != nil || st != migrate.StateDone {
			t.Fatalf("healthy migration: state %v, err %v", st, err)
		}
		if puts := sys.Obs().Counter("exec.backfill_puts").Value(); total == 0 || puts != total || ops != total {
			t.Errorf("%d records to backfill: %d backfill puts, %d of them through the injector", total, puts, ops)
		}
		report, err := sys.VerifyCheck()
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() || int64(report.AckedRows) != total {
			t.Errorf("backfilled %d rows, verifier acknowledged %d:\n%s", total, report.AckedRows, report.Format())
		}
	}
}

// TestNewRejectsContradictoryConfigs: a Config that contradicts itself
// is a descriptive error from New, never a panic and never a system.
func TestNewRejectsContradictoryConfigs(t *testing.T) {
	f := newReplFixture(t)
	lat := cost.DefaultParams()
	quorum := &harness.ReplicationConfig{Read: executor.Quorum, Write: executor.Quorum}
	for _, tc := range []struct {
		name string
		cfg  harness.Config
		want string
	}{
		{"node weather without replication",
			harness.Config{Rec: f.rec, Dataset: f.ds, NodeWeather: &harness.NodeWeather{Seed: 1}},
			"node weather without Replication"},
		{"surviving cluster without replication",
			harness.Config{Rec: f.rec, Repl: backend.NewReplicatedStore(lat, 3, 2)},
			"surviving cluster without Replication"},
		{"replication over a surviving single store",
			harness.Config{Rec: f.rec, Store: backend.NewStore(lat), Replication: quorum},
			"Replication over a surviving single store"},
		{"dataset and store",
			harness.Config{Rec: f.rec, Dataset: f.ds, Store: backend.NewStore(lat)},
			"more than one source of data"},
		{"dataset and cluster",
			harness.Config{Rec: f.rec, Dataset: f.ds, Repl: backend.NewReplicatedStore(lat, 3, 2), Replication: quorum},
			"more than one source of data"},
		{"no data",
			harness.Config{Rec: f.rec},
			"names no data"},
		{"no recommendation",
			harness.Config{Dataset: f.ds},
			"no recommendation"},
	} {
		tc.cfg.Name, tc.cfg.Latency = "bad", lat
		sys, err := harness.New(tc.cfg)
		if err == nil || sys != nil {
			t.Errorf("%s: New returned system %v, err %v; want an error", tc.name, sys, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.want) || !strings.Contains(msg, `"bad"`) {
			t.Errorf("%s: error %q does not say %q about system \"bad\"", tc.name, msg, tc.want)
		}
	}

	// Replication defaults are what they were: cluster shape filled in,
	// RF clamped to the cluster size by the store.
	sys := f.system(t, harness.Config{Name: "defaults", Replication: &harness.ReplicationConfig{}})
	if sys.Repl.NodeCount() != harness.DefaultReplicationNodes || sys.Repl.RF() != harness.DefaultReplicationFactor {
		t.Errorf("default cluster is %d nodes at RF %d", sys.Repl.NodeCount(), sys.Repl.RF())
	}
	sys = f.system(t, harness.Config{Name: "clamped", Replication: &harness.ReplicationConfig{Nodes: 2}})
	if sys.Repl.NodeCount() != 2 || sys.Repl.RF() != 2 {
		t.Errorf("2-node cluster is %d nodes at RF %d, want RF clamped to 2", sys.Repl.NodeCount(), sys.Repl.RF())
	}
}

// TestRestartOverSurvivingCluster: New over a cluster that survived a
// crash installs nothing, starts with a fresh coordinator — the hints
// the crashed incarnation queued are gone — and serves the
// recommendation the crashed incarnation served.
func TestRestartOverSurvivingCluster(t *testing.T) {
	f := newReplFixture(t)
	quorum := &harness.ReplicationConfig{Read: executor.Quorum, Write: executor.Quorum}
	crashed := f.system(t, harness.Config{
		Name: "crashed", Replication: quorum, NodeWeather: &harness.NodeWeather{Seed: 1},
	})
	cf, replicas := queryReplicas(t, crashed, f.rec)
	if err := crashed.MarkNodeDown(replicas[0]); err != nil {
		t.Fatal(err)
	}
	wp := executor.Params{"id": int64(500), "city": "c1", "name": "hinted"}
	if _, err := crashed.ExecStatement(f.insert, wp); err != nil {
		t.Fatal(err)
	}
	if crashed.Coord.PendingHints() == 0 {
		t.Fatal("fixture: the crashed incarnation queued no hints")
	}
	puts := crashed.Obs().Counter("store.puts").Value()
	records, err := crashed.Repl.CFStats(cf)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := harness.New(harness.Config{
		Name: "restarted", Rec: crashed.Rec(), Latency: cost.DefaultParams(),
		Repl: crashed.Repl, Replication: quorum,
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := sys.Repl.CFStats(cf)
	if err != nil {
		t.Fatal(err)
	}
	if after != records || sys.Obs().Counter("store.puts").Value() != 0 || crashed.Obs().Counter("store.puts").Value() != puts {
		t.Errorf("restart wrote to the surviving cluster: %+v records before, %+v after; %d replica puts in the new registry",
			records, after, sys.Obs().Counter("store.puts").Value())
	}
	if n := sys.Coord.PendingHints(); n != 0 {
		t.Errorf("restarted coordinator holds %d hints; they die with the process", n)
	}
	if sys.Coord == crashed.Coord || sys.Repl != crashed.Repl {
		t.Error("restart must build a fresh coordinator over the same cluster")
	}
	if sys.Rec() != crashed.Rec() {
		t.Error("restarted system does not serve the crashed incarnation's recommendation")
	}
	if _, err := sys.ExecStatement(f.query, f.params); err != nil {
		t.Errorf("query after restart: %v", err)
	}
}
