package harness_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/hotel"
	"nose/internal/obs"
	"nose/internal/search"
	"nose/internal/verify"
	"nose/internal/workload"
)

// counter and gauge read one instrument of a system's registry by name.
// A name the registry never registered fails the test: Registry.Counter
// would create it, and a misspelt name would read as a silent zero.
func counter(t *testing.T, sys *harness.System, name string) int64 {
	t.Helper()
	v, ok := sys.Obs().Snapshot().Counters[name]
	if !ok {
		t.Fatalf("counter %q is not registered", name)
	}
	return v
}

func gauge(t *testing.T, sys *harness.System, name string) float64 {
	t.Helper()
	v, ok := sys.Obs().Snapshot().Gauges[name]
	if !ok {
		t.Fatalf("gauge %q is not registered", name)
	}
	return v
}

// TestRegistryVocabulary pins the names the data plane counts under. A
// replicated system declaring family weather, node weather and a verifier serves a
// faulted mix at ONE reads (so a read can land on a replica with hints
// pending) and QUORUM writes; its registry must hold every retry,
// coordination, fault and statement-outcome instrument, and the mix
// exercises each one, so each must have counted something. The advise
// that recommends a system's schema counts its LP work under the lp.*
// names pinned last: every one registered, and those the hotel example's
// two solver phases exercise non-zero.
func TestRegistryVocabulary(t *testing.T) {
	f := newReplFixture(t)
	sys := f.system(t, harness.Config{
		Name: "vocabulary",
		Replication: &harness.ReplicationConfig{
			Read: executor.One, Write: executor.Quorum, Hedge: true,
		},
		FamilyWeather: &harness.Weather{Seed: 7, Profile: faults.Rate(0.2)},
		NodeWeather:   &harness.Weather{Seed: 11, Profile: faults.NodeRate(0.1)},
		Verifier:      verify.New(),
	})
	for i := 0; i < 400; i++ {
		var st workload.Statement = f.query
		params := f.params
		if i%2 == 1 {
			st = f.insert
			params = executor.Bindings{"id": int64(1000 + i), "city": "c1", "name": fmt.Sprintf("w%d", i)}
		}
		if _, err := sys.ExecStatement(st, params); err != nil && !errors.Is(err, harness.ErrUnavailable) {
			t.Fatal(err)
		}
	}

	for _, name := range []string{
		"exec.retries", "exec.retry_exhausted",
		"coord.reads", "coord.writes", "coord.replica_reads", "coord.replica_writes",
		"coord.read_unavailable", "coord.write_unavailable", "coord.hedges", "coord.hedge_wins",
		"coord.hints_queued", "coord.hints_replayed", "coord.read_repairs", "coord.stale_reads",
		"faults.ops", "faults.transients", "faults.timeouts", "faults.unavailables",
		"nodefaults.ops", "nodefaults.flaky", "nodefaults.down_rejections",
		"nodefaults.down_windows", "nodefaults.slow_windows",
		"harness.statements", "harness.unavailable", "harness.degraded_statements",
	} {
		if counter(t, sys, name) == 0 {
			t.Errorf("counter %s = 0: the faulted mix should exercise it", name)
		}
	}
	for _, name := range []string{"exec.backoff_sim_ms", "exec.wasted_sim_ms", "harness.degraded_sim_ms"} {
		if gauge(t, sys, name) <= 0 {
			t.Errorf("gauge %s = 0: the faulted mix should exercise it", name)
		}
	}

	reg := obs.NewRegistry()
	if _, err := search.Advise(hotelWorkload(), search.Options{Workers: 1, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	advise := reg.Snapshot().Counters
	for name, exercised := range map[string]bool{
		"lp.solves": true, "lp.cold_solves": true, "lp.warm_starts": true,
		"lp.warm_infeasible": false, "lp.warm_fallbacks": false, "lp.pivots": true, "lp.phase1_pivots": true, "lp.dual_pivots": true,
		"lp.degenerate_pivots": true, "lp.refactors": true, "lp.refactor_nnz": true, "lp.factor_reuses": true,
		"lp.prices": true,
	} {
		v, ok := advise[name]
		switch {
		case !ok:
			t.Errorf("advise counter %q is not registered", name)
		case exercised && v == 0:
			t.Errorf("advise counter %s = 0: the hotel advise should exercise it", name)
		}
	}
}

// hotelWorkload is the hotel example's three queries and two updates.
func hotelWorkload() *workload.Workload {
	g := hotel.Graph()
	w := workload.New(g)
	for _, src := range []string{hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery} {
		w.Add(workload.MustParseQuery(g, src), 1)
	}
	w.Add(workload.MustParse(g, hotel.UpdateStatements[0]), 0.5)
	w.Add(workload.MustParse(g, hotel.UpdateStatements[2]), 0.25)
	return w
}

// TestRobustnessUnavailabilityCountersGolden pins the exact counter
// values a deterministic unavailability scenario produces: one healthy
// execution, one unavailable execution with the query's family down,
// and one healthy execution after the family comes back. Nothing
// retried, so nothing is degraded.
func TestRobustnessUnavailabilityCountersGolden(t *testing.T) {
	f := newQueryFixture(t, familyWeather(1, faults.Profile{}))
	for i, down := range []bool{false, true, false} {
		if down {
			f.sys.Faults().MarkDown(f.cf)
		} else {
			f.sys.Faults().MarkUp(f.cf)
		}
		if _, lost := f.exec(t); lost != down {
			t.Fatalf("execution %d: unavailable %v, want %v", i, lost, down)
		}
	}

	for name, want := range map[string]int64{
		"harness.statements":          3,
		"harness.unavailable":         1,
		"harness.degraded_statements": 0,
		"faults.unavailables":         1,
		"exec.retries":                0,
	} {
		if got := counter(t, f.sys, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// A single-store system has no coordinator: no coord.* instrument.
	for name := range f.sys.Obs().Snapshot().Counters {
		if strings.HasPrefix(name, "coord.") {
			t.Errorf("single-store system registered %s", name)
		}
	}
}
