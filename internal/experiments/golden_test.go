package experiments_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nose/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestSweepTablesGolden pins the printed drift and online tables
// against files generated at an earlier commit than the one that last
// restructured the migration path under them (PR 14's, before
// System.Migrate became a live migration driven to completion). The
// determinism tests compare a build with itself at two worker counts;
// only a committed file can see a simulated millisecond move between
// commits. The online table has a clean and a node-faulted row per
// rate, so Migrate on a replicated QUORUM cluster is covered.
// Regenerate with -update only for a change that means to move a table.
func TestSweepTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	cases := []struct {
		golden string
		run    func(workers int) (string, error)
	}{
		{"drift-tiny.golden.txt", func(workers int) (string, error) {
			res, err := experiments.RunDrift(driftTestConfig(workers))
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"online-tiny.golden.txt", func(workers int) (string, error) {
			res, err := experiments.RunOnline(onlineTestConfig(workers))
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"load-tiny.golden.txt", func(workers int) (string, error) {
			res, err := experiments.RunLoad(loadTestConfig(workers))
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"quorum-tiny.golden.txt", func(workers int) (string, error) {
			res, err := experiments.RunQuorum(quorumTestConfig(workers))
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"chaos-tiny.golden.txt", func(workers int) (string, error) {
			res, err := experiments.RunChaos(chaosTestConfig(workers))
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
	}
	for _, tc := range cases {
		path := filepath.Join("..", "..", "testdata", tc.golden)
		for _, workers := range []int{1, 4} {
			got, err := tc.run(workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.golden, workers, err)
			}
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
					tc.golden, workers, got, want)
			}
		}
	}
}
