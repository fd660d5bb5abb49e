package experiments_test

import (
	"reflect"
	"strings"
	"testing"

	"nose/internal/experiments"
	"nose/internal/rubis"
)

func driftTestConfig(workers int) experiments.DriftConfig {
	opts := fastOptions()
	opts.Workers = workers
	return experiments.DriftConfig{
		Base: experiments.Fig11Config{
			RUBiS:      rubis.Config{Users: 200, Seed: 1},
			Executions: 10,
			Advisor:    opts,
		},
		Rates:  []float64{0, 1},
		Phases: 3,
		Seed:   7,
	}
}

// TestRunDriftDeterministicSweep: the drift sweep must be reproducible
// bit for bit from its config and seed, and byte-identical at any
// advisor worker count — the whole chain (series advisor, migrations,
// execution) is deterministic.
func TestRunDriftDeterministicSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	res, err := experiments.RunDrift(driftTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		for name, cell := range map[string]experiments.OnlineCell{
			"static": row.Static, "readvised": row.Readvised,
		} {
			if cell.WorkloadMillis <= 0 {
				t.Errorf("rate %g %s: no workload time", row.Rate, name)
			}
			if cell.MigrationMillis <= 0 || cell.Migrations < 1 || cell.FamiliesBuilt < 1 {
				t.Errorf("rate %g %s: initial installation not charged: %+v", row.Rate, name, cell)
			}
			if cell.TotalMillis() != cell.WorkloadMillis+cell.MigrationMillis {
				t.Errorf("rate %g %s: total is not workload+migration", row.Rate, name)
			}
		}
	}

	// At rate 0 every phase is the same workload: re-advising must not
	// change the schema mid-run.
	if r0 := res.Rows[0]; r0.Readvised.Migrations > 1 {
		t.Errorf("rate 0: %d migrations, want only the initial installation", r0.Readvised.Migrations)
	}

	// Identical config and seed reproduce the sweep bit for bit.
	again, err := experiments.RunDrift(driftTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("same seed produced a different sweep")
	}

	// Worker count must not change a single bit of the table.
	wide, err := experiments.RunDrift(driftTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, wide) {
		t.Errorf("worker count changed the sweep:\n%s\nvs\n%s", res.Format(), wide.Format())
	}

	out := res.Format()
	if !strings.Contains(out, "winner") || !strings.Contains(out, "3 phases") {
		t.Errorf("format output incomplete:\n%s", out)
	}
}

// TestDriftSeedZeroIsASeed: seed 0 drives the parameter streams like any
// other seed. The sweep once rewrote it to 7, so -seed 0 printed the
// seed-7 table.
func TestDriftSeedZeroIsASeed(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	tables := map[int64]string{}
	for _, seed := range []int64{0, 7} {
		cfg := driftTestConfig(1)
		cfg.Seed = seed
		res, err := experiments.RunDrift(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tables[seed] = res.Format()
	}
	if tables[0] == tables[7] {
		t.Errorf("seeds 0 and 7 print the same drift table:\n%s", tables[0])
	}
}
