package harness_test

import (
	"fmt"
	"reflect"
	"testing"

	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/verify"
	"nose/internal/workload"
)

// TestSetterOrderDoesNotChangeTheStack: the executor's layer stack is
// composed from what was attached, not from the order it was attached
// in. A later setter used to rebuild the executor without the earlier
// ones' layers — EnableNodeFaults or AttachVerifier after EnableFaults
// dropped the family injector, AttachVerifier after either Enable*
// dropped the retries — so every order of the three must now give the
// same seeded run: same simulated time, same robustness report, same
// acknowledged rows, with every layer visibly in the path.
func TestSetterOrderDoesNotChangeTheStack(t *testing.T) {
	f := newReplFixture(t)
	type outcome struct {
		millis float64
		failed int
		robust harness.RobustnessReport
		acked  int
	}
	run := func(order []string) outcome {
		sys, err := harness.NewReplicatedSystem("repl", f.ds, f.rec, cost.DefaultParams(),
			harness.ReplicationConfig{Read: executor.Quorum, Write: executor.Quorum})
		if err != nil {
			t.Fatal(err)
		}
		for _, setter := range order {
			switch setter {
			case "verifier":
				sys.AttachVerifier(verify.New())
			case "nodes":
				sys.EnableNodeFaults(11, faults.NodeRate(0.15), executor.DefaultRetryPolicy())
			case "families":
				sys.EnableFaults(7, faults.Rate(0.3), executor.DefaultRetryPolicy())
			}
		}
		var out outcome
		for i := 0; i < 40; i++ {
			var st workload.Statement = f.query
			params := f.params
			if i%2 == 1 {
				st = f.insert
				params = executor.Params{"id": int64(1000 + i), "city": "c1", "name": fmt.Sprintf("w%d", i)}
			}
			ms, err := sys.ExecStatement(st, params)
			out.millis += ms
			if err != nil {
				out.failed++
			}
		}
		report, err := sys.VerifyCheck()
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() {
			t.Errorf("%v: verifier violations:\n%s", order, report.Format())
		}
		out.robust, out.acked = sys.Robustness(), report.AckedRows
		return out
	}

	var want outcome
	for i, order := range [][]string{
		{"verifier", "nodes", "families"},
		{"verifier", "families", "nodes"},
		{"nodes", "verifier", "families"},
		{"nodes", "families", "verifier"},
		{"families", "verifier", "nodes"},
		{"families", "nodes", "verifier"},
	} {
		got := run(order)
		if i == 0 {
			want = got
			r := got.robust
			if r.Injected.Ops == 0 || r.Injected.Transients == 0 || r.NodeFaults.Ops == 0 || r.Retries == 0 || got.acked == 0 {
				t.Fatalf("a layer is missing from the reference stack: %+v, %d acked rows", r, got.acked)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("order %v:\n got %+v\nwant %+v", order, got, want)
		}
	}
}

// TestRetryHistorySurvivesRecompose: a setter that runs mid-run rebuilds
// the executor, and the robustness report must not lose the retries the
// previous executor made — the registry's exec.* instruments are the
// only retry counters, so the new executor picks up where the old one
// stopped. (A private struct per executor used to restart at zero while
// the registry kept counting.)
func TestRetryHistorySurvivesRecompose(t *testing.T) {
	f := newReplFixture(t)
	sys, err := harness.NewSystem("single", f.ds, f.rec, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableFaults(7, faults.Profile{TransientRate: 0.3}, executor.DefaultRetryPolicy())
	run := func() {
		for i := 0; i < 40; i++ {
			_, _ = sys.ExecStatement(f.query, f.params) // failures are part of the weather
		}
	}
	run()
	before := sys.Robustness()
	if before.Retries == 0 || before.WastedMillis == 0 {
		t.Fatalf("no retries under a 30%% transient rate: %+v", before)
	}

	sys.AttachVerifier(verify.New()) // rebuilds sys.Exec
	if got := sys.Robustness(); got.Retries != before.Retries || got.WastedMillis != before.WastedMillis ||
		got.BackoffMillis != before.BackoffMillis || got.RetryExhausted != before.RetryExhausted {
		t.Errorf("recompose reset the retry ledger: %+v, was %+v", got, before)
	}
	run()
	after := sys.Robustness()
	if after.Retries <= before.Retries {
		t.Errorf("retries did not keep accumulating after recompose: %d then %d", before.Retries, after.Retries)
	}
	if reg := sys.Obs().Counter("exec.retries").Value(); reg != after.Retries {
		t.Errorf("report says %d retries, registry %d", after.Retries, reg)
	}
}
