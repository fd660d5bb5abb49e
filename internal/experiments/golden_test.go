package experiments_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nose/internal/experiments"
	"nose/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// formatter is what every sweep result offers the goldens.
type formatter interface{ Format() string }

// sweepCases are the tiny sweeps the goldens pin: the printed table
// (testdata/<name>-tiny.golden.txt) and the data-plane counters the run
// left in its registry (one section of sweep-counters.golden.txt).
var sweepCases = []struct {
	name string
	run  func(workers int, reg *obs.Registry) (formatter, error)
}{
	{"drift", func(workers int, reg *obs.Registry) (formatter, error) {
		cfg := driftTestConfig(workers)
		cfg.Base.Advisor.Obs = reg
		return experiments.RunDrift(cfg)
	}},
	{"online", func(workers int, reg *obs.Registry) (formatter, error) {
		cfg := onlineTestConfig(workers)
		cfg.Base.Advisor.Obs = reg
		return experiments.RunOnline(cfg)
	}},
	{"load", func(workers int, reg *obs.Registry) (formatter, error) {
		cfg := loadTestConfig(workers)
		cfg.Base.Advisor.Obs = reg
		return experiments.RunLoad(cfg)
	}},
	{"quorum", func(workers int, reg *obs.Registry) (formatter, error) {
		cfg := quorumTestConfig(workers)
		cfg.Base.Advisor.Obs = reg
		return experiments.RunQuorum(cfg)
	}},
	{"chaos", func(workers int, reg *obs.Registry) (formatter, error) {
		cfg := chaosTestConfig(workers)
		cfg.Base.Advisor.Obs = reg
		return experiments.RunChaos(cfg)
	}},
	{"crashchaos", func(workers int, reg *obs.Registry) (formatter, error) {
		cfg := crashChaosTestConfig(workers)
		cfg.Advisor.Obs = reg
		return experiments.RunCrashChaos(cfg)
	}},
	{"budget", func(workers int, reg *obs.Registry) (formatter, error) {
		cfg := tinyBase(workers)
		cfg.Advisor.Obs = reg
		return experiments.RunBudgetSweep(cfg, nil)
	}},
	{"ablation", func(workers int, reg *obs.Registry) (formatter, error) {
		cfg := tinyBase(workers)
		cfg.Advisor.Obs = reg
		return experiments.RunAblation(cfg)
	}},
	{"fig11", func(workers int, reg *obs.Registry) (formatter, error) {
		cfg := tinyBase(workers)
		cfg.Advisor.Obs = reg
		return experiments.RunFig11(cfg)
	}},
	{"fig12", func(workers int, reg *obs.Registry) (formatter, error) {
		cfg := tinyBase(workers)
		cfg.Advisor.Obs = reg
		return experiments.RunFig12(cfg)
	}},
}

// dataPlanePrefixes select the counters sweep-counters.golden.txt pins:
// everything the measured systems count, nothing the advisor counts.
var dataPlanePrefixes = []string{"harness.", "exec.", "store.", "coord.", "faults.", "nodefaults."}

// dataPlaneCounters renders one sweep's section of the counters golden.
func dataPlaneCounters(name string, reg *obs.Registry) string {
	counters := reg.Snapshot().Counters
	var names []string
	for c := range counters {
		for _, p := range dataPlanePrefixes {
			if strings.HasPrefix(c, p) {
				names = append(names, c)
				break
			}
		}
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	for _, c := range names {
		fmt.Fprintf(&b, "%s=%d\n", c, counters[c])
	}
	return b.String()
}

// TestSweepTablesGolden pins every sweep's printed table, and the
// data-plane counters of its run registry, against files generated at
// an earlier commit than the one that last restructured the code under
// them: drift and online at PR 14's (before System.Migrate became a
// live migration driven to completion), load, quorum and chaos at PR
// 15's (before compiled plans), and crashchaos, budget, ablation, fig11,
// fig12 and sweep-counters.golden.txt at PR 16's (before the sweep
// driver). The determinism tests compare a build with itself at two
// worker counts; only a committed file can see a simulated millisecond
// move, or a system's registry merged twice or not at all, between
// commits. The online table has a clean and a node-faulted row per
// rate, so Migrate on a replicated QUORUM cluster is covered. fig13
// prints wall-clock durations and stays unpinned. Regenerate with
// -update only for a change that means to move a table.
func TestSweepTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	testdata := filepath.Join("..", "..", "testdata")
	for _, workers := range []int{1, 4} {
		var counters strings.Builder
		for _, tc := range sweepCases {
			reg := obs.NewRegistry()
			res, err := tc.run(workers, reg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			counters.WriteString(dataPlaneCounters(tc.name, reg))
			checkGolden(t, filepath.Join(testdata, tc.name+"-tiny.golden.txt"), workers, res.Format())
		}
		checkGolden(t, filepath.Join(testdata, "sweep-counters.golden.txt"), workers, counters.String())
	}
}

// checkGolden compares got with the file at path, rewriting the file
// first under -update (from the workers=1 run only, so the workers=4
// run still checks something).
func checkGolden(t *testing.T, path string, workers int, got string) {
	t.Helper()
	if *updateGolden && workers == 1 {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s workers=%d drifted from golden (rerun with -update if intended):\ngot:\n%s\nwant:\n%s",
			filepath.Base(path), workers, got, want)
	}
}
