package experiments_test

import (
	"testing"

	"nose/internal/experiments"
	"nose/internal/obs"
	"nose/internal/rubis"
)

// quorumSnapshot runs the quorum sweep (RUBiS advise + executed
// workload under node faults) with a metrics registry attached and
// returns the snapshot.
func quorumSnapshot(t *testing.T, workers int) *obs.Snapshot {
	t.Helper()
	reg := obs.NewRegistry()
	adv := fastOptions()
	adv.Workers = workers
	_, err := experiments.RunQuorum(experiments.QuorumConfig{
		Base: experiments.Fig11Config{
			RUBiS:      rubis.Config{Users: 200, Seed: 1},
			Executions: 2,
			Advisor:    adv,
			Obs:        reg,
		},
		Rates: []float64{0, 0.05},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot()
}

// TestMetricsDeterministicAcrossWorkers is the observability layer's
// core contract: the deterministic sections of the metrics snapshot —
// every counter and every histogram bucket count — are bit-identical
// across advisor worker counts and across same-seed reruns. Volatile
// counters (scheduling-dependent) and gauges (wall-clock timings) are
// exempt; DeterministicFingerprint covers exactly the guaranteed part.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	base := quorumSnapshot(t, 1)
	fp := base.DeterministicFingerprint()
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
	for _, workers := range []int{4, 8} {
		snap := quorumSnapshot(t, workers)
		if got := snap.DeterministicFingerprint(); got != fp {
			t.Errorf("workers=%d changed the deterministic metrics:\nworkers=1: %s\nworkers=%d: %s",
				workers, fp, workers, got)
		}
	}
	// Same seed, same worker count: a rerun in the same process (fresh
	// stores, fresh fault streams) reproduces the snapshot too.
	again := quorumSnapshot(t, 1)
	if got := again.DeterministicFingerprint(); got != fp {
		t.Errorf("same-seed rerun changed the deterministic metrics:\n%s\nvs\n%s", fp, got)
	}

	// The run actually flowed through every layer: advisor, solver,
	// harness, coordinator, node stores, and fault domains all counted.
	for _, name := range []string{
		"enum.candidates_unique", "search.candidates", "bip.nodes", "lp.pivots",
		"lp.refactor_nnz", "harness.statements", "coord.reads", "store.gets", "nodefaults.ops",
		"exec.queries",
	} {
		if base.Counters[name] == 0 {
			t.Errorf("counter %s = 0; layer not instrumented in this run", name)
		}
	}
	if base.Histograms["harness.statement.sim_ms"].Count == 0 {
		t.Error("statement latency histogram empty")
	}
}
