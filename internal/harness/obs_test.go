package harness_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/obs"
)

// TestConcurrentStatementsUnderNodeFaults hammers one replicated system
// from many goroutines while node faults and hedged reads overlap — the
// interleaving that used to race on shared counters before they moved
// onto the registry's atomic instruments. Run under -race
// (CI does, with -count=2 -shuffle=on); the assertions below pin that
// no outcome is lost or double-counted under contention.
func TestConcurrentStatementsUnderNodeFaults(t *testing.T) {
	f := newReplFixture(t)
	sys := f.system(t, harness.Config{
		Name: "race",
		Replication: &harness.ReplicationConfig{
			Read:  executor.Quorum,
			Write: executor.Quorum,
			Hedge: true,
		},
		NodeWeather: &harness.Weather{Seed: 11, Profile: faults.NodeRate(0.15)},
	})

	const goroutines = 8
	const perGoroutine = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				// Unavailability is an expected outcome under node
				// faults; any other error is a bug.
				if _, err := sys.ExecStatement(f.query, f.params); err != nil && !isUnavailable(err) {
					t.Error(err)
					return
				}
				wp := executor.Bindings{"id": int64(10_000 + g*1_000 + i), "city": "c1", "name": "w"}
				if _, err := sys.ExecStatement(f.insert, wp); err != nil && !isUnavailable(err) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	want := int64(goroutines * perGoroutine * 2)
	if got := counter(t, sys, "harness.statements"); got != want {
		t.Errorf("harness.statements = %d, want %d (lost or double-counted under contention)", got, want)
	}
	if got := sys.Obs().Snapshot().Histograms["harness.statement.sim_ms"].Count; got != want {
		t.Errorf("statement histogram count = %d, want %d", got, want)
	}
	for _, name := range []string{"coord.reads", "store.gets", "nodefaults.ops"} {
		if counter(t, sys, name) == 0 {
			t.Errorf("%s = 0: a layer saw no operations", name)
		}
	}
}

func isUnavailable(err error) bool {
	return err != nil && strings.Contains(err.Error(), harness.ErrUnavailable.Error())
}

// TestStatementTraceLanes pins the harness's simulated-clock tracing:
// statements land end to end on the system's lane with their simulated
// durations, under the lane name EnableTrace registered.
func TestStatementTraceLanes(t *testing.T) {
	f := newReplFixture(t)
	sys, err := harness.NewSystem("traced", f.ds, f.rec, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	sys.EnableTrace(tr, 3, "lane/traced")

	ms1, err := sys.ExecStatement(f.query, f.params)
	if err != nil {
		t.Fatal(err)
	}
	ms2, err := sys.ExecStatement(f.query, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("trace events = %d, want 2", tr.Len())
	}

	var out strings.Builder
	if err := tr.WriteTrace(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{`"lane/traced"`, `"statement"`, `"tid":3`} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %s:\n%s", want, s)
		}
	}

	// The statements lie end to end on the simulated clock: the second
	// starts where the first ended (trace timestamps are microseconds).
	var parsed struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Pid int     `json:"pid"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(s), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var sim []struct{ ts, dur float64 }
	for _, e := range parsed.TraceEvents {
		if e.Ph == "X" && e.Pid == obs.SimPID {
			sim = append(sim, struct{ ts, dur float64 }{e.Ts, e.Dur})
		}
	}
	if len(sim) != 2 {
		t.Fatalf("sim events = %d, want 2", len(sim))
	}
	if sim[0].ts != 0 || sim[0].dur != ms1*1000 {
		t.Errorf("first event ts=%v dur=%v, want 0 and %v", sim[0].ts, sim[0].dur, ms1*1000)
	}
	if sim[1].ts != ms1*1000 || sim[1].dur != ms2*1000 {
		t.Errorf("second event ts=%v dur=%v, want %v and %v", sim[1].ts, sim[1].dur, ms1*1000, ms2*1000)
	}
}
