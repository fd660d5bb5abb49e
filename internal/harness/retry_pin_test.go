package harness_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nose/internal/baselines"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/rubis"
	"nose/internal/search"
)

// TestRetryTimesPinned pins what the executor's retries charge. Three
// systems serve the expert RUBiS schema (200 users, seed 3): one healthy
// single store, one single store under family weather and one quorum
// cluster under node weather. Each runs every transaction three times
// under seeded bindings. The golden file holds every statement's
// simulated time, bit for bit, with its error, and then the system's
// exec.retries, exec.retry_exhausted, exec.backoff_sim_ms and
// exec.wasted_sim_ms. A change to how the data plane is assembled or
// how the executor retries must leave every line byte-identical
// (-update rewrites the golden file).
func TestRetryTimesPinned(t *testing.T) {
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
	rec, err := search.AdvisePinned(w, pool, search.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, s := range []struct {
		name    string
		declare func(*harness.Config)
	}{
		{"healthy", func(*harness.Config) {}},
		{"family-weather", func(c *harness.Config) {
			c.FamilyWeather = &harness.Weather{Seed: 7, Profile: faults.Profile{TransientRate: 0.4, TimeoutRate: 0.2}}
		}},
		{"node-weather", func(c *harness.Config) {
			c.Replication = &harness.ReplicationConfig{Read: executor.Quorum, Write: executor.Quorum}
			c.NodeWeather = &harness.Weather{Seed: 5, Profile: faults.NodeRate(0.6)}
		}},
	} {
		sc := harness.Config{Name: s.name, Rec: rec, Latency: cost.DefaultParams(), Dataset: ds}
		s.declare(&sc)
		sys, err := harness.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n", s.name)
		ps := rubis.NewParamSource(cfg, 13)
		for round := 0; round < 3; round++ {
			for _, txn := range txns {
				params := ps.Params(txn.Name)
				for i, st := range txn.Statements {
					ms, err := sys.ExecStatement(st, params)
					fmt.Fprintf(&b, "%d %s/%d %s", round, txn.Name, i, strconv.FormatFloat(ms, 'g', -1, 64))
					if err != nil {
						fmt.Fprintf(&b, " err=%v", err)
					}
					b.WriteByte('\n')
				}
			}
		}
		fmt.Fprintf(&b, "exec.retries=%d\nexec.retry_exhausted=%d\n",
			counter(t, sys, "exec.retries"), counter(t, sys, "exec.retry_exhausted"))
		fmt.Fprintf(&b, "exec.backoff_sim_ms=%s\nexec.wasted_sim_ms=%s\n",
			strconv.FormatFloat(gauge(t, sys, "exec.backoff_sim_ms"), 'g', -1, 64),
			strconv.FormatFloat(gauge(t, sys, "exec.wasted_sim_ms"), 'g', -1, 64))
	}

	path := filepath.Join("testdata", "retry-times.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
