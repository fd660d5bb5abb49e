package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokesMatchGoldens runs the online, crashchaos and load sweeps
// and holds each printed table byte for byte to a committed golden: a
// fixed seed prints the same table at any worker count and on every
// commit, so a simulated millisecond cannot move unnoticed. Crashchaos
// and load print their title over the table internal/experiments'
// TestSweepTablesGolden pins at workers 1 and 4 (testdata/<name>-tiny),
// so each runs here once, at four workers. Online keeps its own golden
// and both worker counts: its tiny configuration disables the cooldown,
// which no flag can. A golden is re-baselined only by a change that
// means to move an advise, with the diff explained in EXPERIMENTS.md.
func TestSmokesMatchGoldens(t *testing.T) {
	for _, c := range []struct {
		title, golden, args string
		workers             []string
	}{
		// The drift detector and live migration over a drifting timeline.
		{"", "online-smoke.golden.txt",
			"-experiment online -users 200 -executions 24 -drift 0,1 -phases 3 -max-plans 8 -max-nodes 30 -drift-window 20 -drift-confirm 1",
			[]string{"1", "4"}},
		// Every journal append index crashed, recovered and verified.
		{"Crashchaos — crash-point sweep of a live migration with journal recovery and invariant verification (hotel workload)\n",
			"crashchaos-tiny.golden.txt", "-experiment crashchaos -seed 7", []string{"4"}},
		// Closed-loop clients over per-node service queues: simulated
		// time is a function of row counts only.
		{"Load — closed-loop latency under load with per-node service queues (NoSE schema, bidding workload)\n",
			"load-tiny.golden.txt", "-experiment load -users 300 -seed 7 -clients 1,4,16 -horizon 300 -max-plans 8 -max-nodes 30",
			[]string{"4"}},
	} {
		golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(c.title), golden...)
		for _, workers := range c.workers {
			args := append(strings.Fields(c.args), "-workers", workers)
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("nosebench %s: %v", strings.Join(args, " "), err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("nosebench %s differs from its title and testdata/%s:\n%s", strings.Join(args, " "), c.golden, out.Bytes())
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
