package faults_test

import (
	"testing"

	"nose/internal/faults"
)

// drive runs a fixed op sequence against a node set and returns the
// fault trace: per op, the fault kind (or -1) and latency factor.
type nodeOutcome struct {
	kind   int
	factor float64
}

func driveNodes(seed int64, n int, p faults.NodeProfile, ops int) ([]nodeOutcome, faults.NodeCounts) {
	ns := faults.NewNodes(seed, n)
	ns.SetDefaultProfile(p)
	var trace []nodeOutcome
	for i := 0; i < ops; i++ {
		ferr, factor := ns.Decide(i%n, "cf", "get")
		kind := -1
		if ferr != nil {
			kind = int(ferr.Kind)
		}
		trace = append(trace, nodeOutcome{kind, factor})
	}
	return trace, ns.Counts()
}

func TestNodesDeterministicPerSeed(t *testing.T) {
	p := faults.NodeRate(0.3)
	t1, c1 := driveNodes(99, 5, p, 2000)
	t2, c2 := driveNodes(99, 5, p, 2000)
	if c1 != c2 {
		t.Fatalf("counts differ for the same seed: %+v vs %+v", c1, c2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("op %d differs for the same seed: %+v vs %+v", i, t1[i], t2[i])
		}
	}
	t3, _ := driveNodes(100, 5, p, 2000)
	same := true
	for i := range t1 {
		if t1[i] != t3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical fault trace")
	}
}

func TestNodesTransparentWithoutProfile(t *testing.T) {
	ns := faults.NewNodes(1, 3)
	for i := 0; i < 100; i++ {
		if ferr, factor := ns.Decide(i%3, "cf", "get"); ferr != nil || factor != 1 {
			t.Fatalf("unconfigured node set injected a fault: %v factor %v", ferr, factor)
		}
	}
	c := ns.Counts()
	if c.Ops != 100 || c.Flaky != 0 || c.DownRejections != 0 {
		t.Errorf("counts = %+v, want 100 clean ops", c)
	}
}

func TestNodesMarkDownUp(t *testing.T) {
	ns := faults.NewNodes(1, 3)
	if err := ns.MarkDown(1); err != nil {
		t.Fatal(err)
	}
	if ferr, _ := ns.Decide(0, "cf", "get"); ferr != nil {
		t.Fatalf("node 0 faulted with node 1 marked down: %v", ferr)
	}
	ferr, _ := ns.Decide(1, "cf", "get")
	if ferr == nil || ferr.Kind != faults.Unavailable || ferr.Node != 1 {
		t.Fatalf("down node returned %v, want Unavailable on node 1", ferr)
	}
	if err := ns.MarkUp(1); err != nil {
		t.Fatal(err)
	}
	if ferr, _ := ns.Decide(1, "cf", "get"); ferr != nil {
		t.Fatalf("recovered node faulted: %v", ferr)
	}
	if err := ns.MarkDown(7); err == nil {
		t.Error("MarkDown on a nonexistent node should fail")
	}
}

// TestNodesDownWindow pins the window mechanics: a DownRate=1 profile
// opens a down window on the first op; the node rejects operations for
// DownOps ops and then recovers on its own.
func TestNodesDownWindow(t *testing.T) {
	ns := faults.NewNodes(1, 1)
	ns.SetProfile(0, faults.NodeProfile{DownRate: 1, DownOps: 3})
	ferr, _ := ns.Decide(0, "cf", "get")
	if ferr == nil || ferr.Kind != faults.Unavailable {
		t.Fatalf("first op should open the down window, got %v", ferr)
	}
	for i := 0; i < 3; i++ {
		if ferr, _ := ns.Decide(0, "cf", "get"); ferr == nil || ferr.Kind != faults.Unavailable {
			t.Fatalf("op %d inside the window passed", i)
		}
	}
	c := ns.Counts()
	if c.DownWindows != 1 {
		t.Errorf("DownWindows = %d, want 1", c.DownWindows)
	}
	// The window has elapsed; with DownRate=1 the next healthy draw
	// opens a new one — so assert via a zero-rate profile instead.
	ns.SetProfile(0, faults.NodeProfile{})
	if ferr, _ := ns.Decide(0, "cf", "get"); ferr != nil {
		t.Fatalf("node did not recover after the window: %v", ferr)
	}
}

// TestNodesSlowWindow pins slow-window latency inflation.
func TestNodesSlowWindow(t *testing.T) {
	ns := faults.NewNodes(1, 1)
	ns.SetProfile(0, faults.NodeProfile{SlowRate: 1, SlowOps: 2, SlowFactor: 4})
	if ferr, factor := ns.Decide(0, "cf", "get"); ferr != nil || factor != 4 {
		t.Fatalf("opening op: fault %v factor %v, want nil and 4", ferr, factor)
	}
	ns.SetProfile(0, faults.NodeProfile{SlowFactor: 4})
	for i := 0; i < 2; i++ {
		if ferr, factor := ns.Decide(0, "cf", "get"); ferr != nil || factor != 4 {
			t.Fatalf("op %d inside the slow window: fault %v factor %v", i, ferr, factor)
		}
	}
	if _, factor := ns.Decide(0, "cf", "get"); factor != 1 {
		t.Fatalf("factor %v after the slow window, want 1", factor)
	}
	if c := ns.Counts(); c.SlowWindows != 1 {
		t.Errorf("SlowWindows = %d, want 1", c.SlowWindows)
	}
}

func TestNodesFlaky(t *testing.T) {
	ns := faults.NewNodes(1, 1)
	ns.SetProfile(0, faults.NodeProfile{FlakyRate: 1})
	ferr, _ := ns.Decide(0, "cf", "put")
	if ferr == nil || ferr.Kind != faults.Transient {
		t.Fatalf("FlakyRate=1 returned %v, want Transient", ferr)
	}
	if ferr.SimMillis <= 0 {
		t.Error("flaky fault should waste simulated time")
	}
	if ferr.Node != 0 {
		t.Errorf("fault attributed to node %d, want 0", ferr.Node)
	}
	if c := ns.Counts(); c.Flaky != 1 {
		t.Errorf("Flaky = %d, want 1", c.Flaky)
	}
}

func TestNodeRateBands(t *testing.T) {
	p := faults.NodeRate(0.1)
	total := p.FlakyRate + p.SlowRate + p.DownRate
	if total <= 0.0999 || total >= 0.1001 {
		t.Errorf("NodeRate(0.1) bands sum to %v, want 0.1", total)
	}
	if p.FlakyRate <= p.SlowRate || p.SlowRate <= p.DownRate {
		t.Errorf("NodeRate ordering wrong: %+v (want flaky > slow > down)", p)
	}
}
