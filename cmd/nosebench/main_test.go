package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokesMatchGoldens runs the online, crashchaos and load sweeps at
// one and at four advisor workers and holds each table byte for byte to
// its committed golden: a fixed seed prints the same table at any worker
// count and on every commit, so a simulated millisecond cannot move
// unnoticed. A golden is re-baselined only by a change that means to
// move an advise, with the diff explained in EXPERIMENTS.md.
func TestSmokesMatchGoldens(t *testing.T) {
	for _, c := range []struct{ golden, args string }{
		// The drift detector and live migration over a drifting timeline.
		{"online-smoke.golden.txt", "-experiment online -users 200 -executions 24 -drift 0,1 -phases 3 -max-plans 8 -max-nodes 30 -drift-window 20 -drift-confirm 1"},
		// Every journal append index crashed, recovered and verified.
		{"crashchaos-smoke.golden.txt", "-experiment crashchaos -seed 7"},
		// Closed-loop clients over per-node service queues: simulated
		// time is a function of row counts only.
		{"load-smoke.golden.txt", "-experiment load -users 300 -seed 7 -clients 1,4,16 -horizon 300 -max-plans 8 -max-nodes 30"},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "4"} {
			args := append(strings.Fields(c.args), "-workers", workers)
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("nosebench %s: %v", strings.Join(args, " "), err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("nosebench %s differs from testdata/%s:\n%s", strings.Join(args, " "), c.golden, out.Bytes())
			}
		}
	}
}

// TestRunRejectsBadInput holds run to returning, not exiting, on an
// unknown flag, an unknown experiment and a malformed list.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-experiment", "fig99"},
		{"-experiment", "chaos", "-faults", "0,2"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("nosebench %s: no error", strings.Join(args, " "))
		}
	}
}
