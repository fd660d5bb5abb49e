package harness_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nose/internal/baselines"
	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/executor"
	"nose/internal/harness"
	"nose/internal/migrate"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/schema"
	"nose/internal/search"
)

// TestMigrateInstallsAndAdoptsRecommendation: a system born with an
// empty schema must, after one Migrate, hold the recommendation's
// column families (charged simulated time) and execute every
// transaction against them — the mid-run re-advising path the drift
// experiment exercises.
func TestMigrateInstallsAndAdoptsRecommendation(t *testing.T) {
	cfg := rubis.Config{Users: 200, Seed: 3}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := baselines.ExpertRUBiS(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := baselines.Recommend(w, pool, cost.Default(), planner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	sys, err := harness.NewSystem("migrating", ds,
		&search.Recommendation{Schema: schema.NewSchema()}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	// Before the migration the system has no plans: queries must fail.
	ps := rubis.NewParamSource(cfg, 1)
	if _, err := sys.ExecTransaction(txns[0].Statements, ps.Params(txns[0].Name)); err == nil {
		t.Fatal("empty system executed a transaction")
	}

	res, err := sys.Migrate(ds, &search.PhaseRecommendation{
		Rec:   rec,
		Build: rec.Schema.Indexes(),
	}, migrate.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Built) != rec.Schema.Len() {
		t.Errorf("built %d of %d families", len(res.Built), rec.Schema.Len())
	}
	if res.SimMillis <= 0 || res.Records <= 0 {
		t.Errorf("migration charged nothing: %+v", res)
	}

	// After the migration every transaction runs on the new schema.
	ps = rubis.NewParamSource(cfg, 1)
	for _, txn := range txns {
		if _, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name)); err != nil {
			t.Fatalf("%s after migration: %v", txn.Name, err)
		}
	}

	reg := sys.Obs()
	if got := reg.Counter("harness.migrations").Value(); got != 1 {
		t.Errorf("harness.migrations = %d, want 1", got)
	}
	if got := reg.Counter("harness.migration_families_built").Value(); got != int64(len(res.Built)) {
		t.Errorf("harness.migration_families_built = %d, want %d", got, len(res.Built))
	}
	if got := reg.Gauge("harness.migration_sim_ms").Value(); got != res.SimMillis {
		t.Errorf("harness.migration_sim_ms = %v, want %v", got, res.SimMillis)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// migrateLedger is one Migrate call's result as the golden file holds
// it.
type migrateLedger struct {
	Built     []string `json:"built"`
	Dropped   []string `json:"dropped"`
	Records   int      `json:"records"`
	SimMillis float64  `json:"sim_millis"`
}

// TestMigrateResultGolden pins what Migrate reports — families built
// and dropped, records moved, simulated milliseconds — against a file
// generated at PR 14's commit, when Migrate still ran its own
// stop-the-world materializer. Two steps per storage mode: an empty
// system installs the RUBiS expert schema, then moves to the normalized
// baseline (which builds and drops). Simulated time may differ in the
// last place only: the live controller charges every family's setup
// before the first put, the old loop charged it between families.
func TestMigrateResultGolden(t *testing.T) {
	cfg := rubis.Config{Users: 200, Seed: 3}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	recommend := func(pool *enumerator.Pool, err error) *search.Recommendation {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := baselines.Recommend(w, pool, cost.Default(), planner.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	empty := func() *search.Recommendation { return &search.Recommendation{Schema: schema.NewSchema()} }
	systems := map[string]func() (*harness.System, error){
		"single": func() (*harness.System, error) {
			return harness.NewSystem("single", ds, empty(), cost.DefaultParams())
		},
		"replicated": func() (*harness.System, error) {
			return harness.NewReplicatedSystem("replicated", ds, empty(), cost.DefaultParams(),
				harness.ReplicationConfig{Nodes: 5, RF: 3, Read: executor.Quorum, Write: executor.Quorum})
		},
	}

	got := map[string][]migrateLedger{}
	for name, build := range systems {
		sys, err := build()
		if err != nil {
			t.Fatal(err)
		}
		expert := recommend(baselines.ExpertRUBiS(ds.Graph))
		normalized := recommend(baselines.Normalized(w))
		steps := []*search.PhaseRecommendation{{Rec: expert, Build: expert.Schema.Indexes()}}
		second := &search.PhaseRecommendation{Rec: normalized}
		second.Build, second.Drop = migrate.Diff(expert.Schema, normalized.Schema)
		steps = append(steps, second)
		for _, pr := range steps {
			res, err := sys.Migrate(ds, pr, migrate.DefaultCostParams())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name] = append(got[name], migrateLedger{res.Built, res.Dropped, res.Records, res.SimMillis})
		}
	}

	path := filepath.Join("testdata", "migrate-result.golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]migrateLedger
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, ledgers := range want {
		if len(got[name]) != len(ledgers) {
			t.Fatalf("%s: %d migrations, golden has %d", name, len(got[name]), len(ledgers))
		}
		for i, w := range ledgers {
			g := got[name][i]
			if !slices.Equal(g.Built, w.Built) || !slices.Equal(g.Dropped, w.Dropped) || g.Records != w.Records {
				t.Errorf("%s step %d: got %+v, want %+v", name, i, g, w)
			}
			if math.Abs(g.SimMillis-w.SimMillis) > 1e-12*w.SimMillis {
				t.Errorf("%s step %d: SimMillis %v, want %v within 1e-12 relative", name, i, g.SimMillis, w.SimMillis)
			}
		}
	}
}
