package experiments_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"nose/internal/bip"
	"nose/internal/experiments"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/search"
)

// counter reads a counter by name from a cell's registry snapshot. A
// name the system never registered fails the test instead of reading as
// a silent zero.
func counter(t *testing.T, counters map[string]int64, name string) int64 {
	t.Helper()
	v, ok := counters[name]
	if !ok {
		t.Fatalf("counter %q is not registered", name)
	}
	return v
}

func fastOptions() search.Options {
	return search.Options{
		Planner:            planner.Config{MaxPlansPerQuery: 12},
		MaxSupportPlans:    4,
		BIP:                bip.Options{MaxNodes: 30, Gap: 0.05},
		SkipMinimizeSchema: true,
	}
}

// tinyBase is the shared tiny RUBiS configuration of the chaos and
// quorum sweeps' tests and goldens.
func tinyBase(workers int) experiments.Fig11Config {
	opts := fastOptions()
	opts.Workers = workers
	return experiments.Fig11Config{
		RUBiS:      rubis.Config{Users: 200, Seed: 1},
		Executions: 3,
		Advisor:    opts,
	}
}

func chaosTestConfig(workers int) experiments.ChaosConfig {
	return experiments.ChaosConfig{Base: tinyBase(workers), Rates: []float64{0, 0.02}, Seed: 7}
}

func quorumTestConfig(workers int) experiments.QuorumConfig {
	return experiments.QuorumConfig{Base: tinyBase(workers), Rates: []float64{0, 0.05}, Seed: 7}
}

func TestRunFig11TinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	res, err := experiments.RunFig11(experiments.Fig11Config{
		RUBiS:      rubis.Config{Users: 200, Seed: 1},
		Executions: 3,
		Advisor:    fastOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, name := range experiments.SystemNames {
			if row.Millis[name] < 0 {
				t.Errorf("%s/%s negative", row.Transaction, name)
			}
		}
	}
	for _, name := range experiments.SystemNames {
		if res.WeightedAvg[name] <= 0 {
			t.Errorf("weighted avg for %s = %v", name, res.WeightedAvg[name])
		}
	}
	out := res.Format()
	if !strings.Contains(out, "SearchItemsByCategory") || !strings.Contains(out, "WeightedAverage") {
		t.Errorf("format output incomplete:\n%s", out)
	}
	// Shape check: NoSE should not lose the weighted average to the
	// normalized schema on the bidding mix.
	if res.WeightedAvg["NoSE"] > res.WeightedAvg["Normalized"] {
		t.Errorf("NoSE (%.3f) slower than normalized (%.3f) on bidding mix",
			res.WeightedAvg["NoSE"], res.WeightedAvg["Normalized"])
	}
}

func TestRunChaosDeterministicSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	cfg := chaosTestConfig(0)
	res, err := experiments.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}

	// Rate 0 must be indistinguishable from the unfaulted harness: no
	// retries, no failovers, nothing injected, nothing lost.
	healthy := res.Rows[0]
	for _, name := range experiments.SystemNames {
		c := healthy.Cells[name]
		if c.Unavailable != 0 || counter(t, c.Counters, "exec.retries") != 0 || counter(t, c.Counters, "harness.failovers") != 0 {
			t.Errorf("rate 0 on %s not clean: %v", name, c.Counters)
		}
		if _, ok := c.Counters["faults.ops"]; ok {
			t.Errorf("rate 0 on %s declared a fault injector", name)
		}
		if c.Completed == 0 || c.AvgMillis <= 0 {
			t.Errorf("rate 0 on %s completed nothing", name)
		}
	}

	// At a nonzero rate the injector must have fired and the systems
	// must have paid for it (retries or failovers or losses).
	faulted := res.Rows[1]
	for _, name := range experiments.SystemNames {
		c := faulted.Cells[name]
		if counter(t, c.Counters, "faults.ops") == 0 {
			t.Errorf("rate 0.02 on %s: injector saw no operations", name)
		}
		work := counter(t, c.Counters, "exec.retries") + counter(t, c.Counters, "harness.failovers") + c.Unavailable
		injected := counter(t, c.Counters, "faults.transients") + counter(t, c.Counters, "faults.timeouts") + counter(t, c.Counters, "faults.unavailables")
		if injected > 0 && work == 0 {
			t.Errorf("rate 0.02 on %s: faults injected but no degradation recorded: %v", name, c.Counters)
		}
	}

	// Identical config and seed must reproduce the sweep bit for bit.
	again, err := experiments.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("same seed produced a different sweep")
	}

	out := res.Format()
	if !strings.Contains(out, "Unavailable") || !strings.Contains(out, "NoSE") {
		t.Errorf("format output incomplete:\n%s", out)
	}
}

// TestChaosRateZeroMatchesFig11 cross-checks the two experiment paths:
// with no faults enabled, the chaos sweep's average response time must
// equal the mean of Fig. 11's per-transaction averages (they execute
// the exact same statement sequence).
func TestChaosRateZeroMatchesFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	base := experiments.Fig11Config{
		RUBiS:      rubis.Config{Users: 200, Seed: 1},
		Executions: 3,
		Advisor:    fastOptions(),
	}
	chaos, err := experiments.RunChaos(experiments.ChaosConfig{Base: base, Rates: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	fig11, err := experiments.RunFig11(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range experiments.SystemNames {
		mean := 0.0
		for _, row := range fig11.Rows {
			mean += row.Millis[name]
		}
		mean /= float64(len(fig11.Rows))
		got := chaos.Rows[0].Cells[name].AvgMillis
		if math.Abs(got-mean) > 1e-9*math.Max(1, mean) {
			t.Errorf("%s: chaos rate-0 avg %.9f != fig11 mean %.9f", name, got, mean)
		}
	}
}

func TestRunFig13SmallFactors(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	res, err := experiments.RunFig13(experiments.Fig13Config{
		MaxFactor: 2,
		Seed:      5,
		Advisor:   fastOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Total <= 0 {
			t.Errorf("factor %d: zero total", row.Factor)
		}
		if row.Candidates <= 0 || row.Constraints <= 0 {
			t.Errorf("factor %d: missing stats", row.Factor)
		}
	}
	// The workload doubles; the problem must grow.
	if res.Rows[1].Candidates <= res.Rows[0].Candidates {
		t.Error("candidates did not grow with the scale factor")
	}
	if !strings.Contains(res.Format(), "Factor") {
		t.Error("format output incomplete")
	}
}

// TestBudgetSweepFailsOnNodeLimit: only a phase 1 that proves no
// schema fits may print as "no covering schema fits". Under a 3-node
// limit the 75 % budget runs out of nodes before it finds a schema (500
// nodes find one with 3 families), which proves nothing, so the sweep
// must fail through its error path.
func TestBudgetSweepFailsOnNodeLimit(t *testing.T) {
	cfg := experiments.Fig11Config{Advisor: search.Options{BIP: bip.Options{MaxNodes: 3}}}
	res, err := experiments.RunBudgetSweep(cfg, []float64{0.75})
	if err == nil {
		t.Fatalf("sweep under a 3-node limit succeeded:\n%s", res.Format())
	}
	if !strings.Contains(err.Error(), "node-limit") {
		t.Errorf("err = %v, want the phase 1 node-limit failure", err)
	}
}

// TestRunQuorumDeterministicSweep drives the availability/consistency
// sweep at tiny scale and pins its contract: identical config and seed
// reproduce the result bit for bit (at any advisor worker count), ALL
// goes unavailable under node faults no more rarely than QUORUM loses
// data freshness, and a healthy cluster serves every level cleanly.
func TestRunQuorumDeterministicSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	cfg := quorumTestConfig(0)
	res, err := experiments.RunQuorum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Nodes != 5 || res.RF != 3 {
		t.Fatalf("cluster shape %d/%d, want default 5 nodes RF 3", res.Nodes, res.RF)
	}

	// Rate 0: every consistency level completes everything, nothing is
	// stale, nothing is unavailable.
	for _, level := range res.Levels {
		c := res.Rows[0].Cells[level.String()]
		if c.Completed == 0 || c.Unavailable != 0 {
			t.Errorf("rate 0 at %v: completed=%d unavailable=%d", level, c.Completed, c.Unavailable)
		}
		if stale := counter(t, c.Counters, "coord.stale_reads"); stale != 0 {
			t.Errorf("rate 0 at %v: %d stale reads", level, stale)
		}
		if c.P50Millis <= 0 || c.P99Millis < c.P50Millis {
			t.Errorf("rate 0 at %v: bad percentiles p50=%v p99=%v", level, c.P50Millis, c.P99Millis)
		}
	}

	// Under node faults the coordinator must have fanned out to
	// replicas and paid for the weather somewhere.
	for _, level := range res.Levels {
		c := res.Rows[1].Cells[level.String()]
		if counter(t, c.Counters, "coord.replica_reads") == 0 || counter(t, c.Counters, "nodefaults.ops") == 0 {
			t.Errorf("rate 0.05 at %v: replica/node counters empty: %v", level, c.Counters)
		}
	}

	// Identical config and seed reproduce the sweep bit for bit.
	again, err := experiments.RunQuorum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("same seed produced a different quorum sweep")
	}

	// ... and the advisor worker count must not leak into the result.
	workers := cfg
	workers.Base.Advisor.Workers = 2
	cfg.Base.Advisor.Workers = 1
	one, err := experiments.RunQuorum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	two, err := experiments.RunQuorum(workers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, two) {
		t.Error("advisor worker count changed the quorum sweep")
	}

	out := res.Format()
	for _, want := range []string{"cluster: 5 nodes, RF 3", "ONE", "QUORUM", "ALL", "p99(ms)", "Stale"} {
		if !strings.Contains(out, want) {
			t.Errorf("format output missing %q:\n%s", want, out)
		}
	}
}
