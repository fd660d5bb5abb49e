package executor_test

import (
	"math"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/faults"
)

// newCluster builds a replicated store with one column family and a
// coordinator at the given consistency levels, returning both plus the
// node fault set.
func newCluster(t *testing.T, n, rf int, read, write executor.Consistency, hedge executor.HedgePolicy) (*backend.ReplicatedStore, *executor.Coordinator, *faults.Nodes) {
	t.Helper()
	repl := backend.NewReplicatedStore(cost.DefaultParams(), n, rf)
	err := repl.Create(backend.ColumnFamilyDef{
		Name:           "cf1",
		PartitionCols:  []string{"E.ID"},
		ClusteringCols: []string{"E.Seq"},
		ValueCols:      []string{"E.Val"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := faults.NewNodes(1, n)
	coord := executor.NewCoordinator(repl, executor.CoordinatorOptions{
		Read: read, Write: write, Hedge: hedge, Nodes: ns,
	})
	return repl, coord, ns
}

func vals(vs ...backend.Value) []backend.Value { return vs }

func TestConsistencyRequired(t *testing.T) {
	cases := []struct {
		c    executor.Consistency
		rf   int
		want int
	}{
		{executor.One, 3, 1},
		{executor.Quorum, 3, 2},
		{executor.All, 3, 3},
		{executor.Quorum, 5, 3},
		{executor.Quorum, 1, 1},
		{executor.All, 1, 1},
	}
	for _, c := range cases {
		if got := c.c.Required(c.rf); got != c.want {
			t.Errorf("%v.Required(%d) = %d, want %d", c.c, c.rf, got, c.want)
		}
	}
}

// TestHealthyAllMatchesSingleStore pins the core equivalence: on a
// healthy cluster every replica charges identical deterministic service
// times, so a coordinated operation at ALL costs exactly what a
// single-store operation costs, and returns the same records.
func TestHealthyAllMatchesSingleStore(t *testing.T) {
	single := backend.NewStore(cost.DefaultParams())
	def := backend.ColumnFamilyDef{
		Name:           "cf1",
		PartitionCols:  []string{"E.ID"},
		ClusteringCols: []string{"E.Seq"},
		ValueCols:      []string{"E.Val"},
	}
	if err := single.Create(def); err != nil {
		t.Fatal(err)
	}
	_, coord, _ := newCluster(t, 5, 3, executor.All, executor.All, executor.HedgePolicy{})

	for i := 0; i < 10; i++ {
		p := vals(int64(i))
		sp, err := single.Put("cf1", p, vals(int64(0)), vals("v"))
		if err != nil {
			t.Fatal(err)
		}
		cp, err := coord.Put("cf1", p, vals(int64(0)), vals("v"))
		if err != nil {
			t.Fatal(err)
		}
		if sp.SimMillis != cp.SimMillis {
			t.Fatalf("put %d: coordinator %.6f != single %.6f", i, cp.SimMillis, sp.SimMillis)
		}
		sg, err := single.Get("cf1", backend.GetRequest{Partition: p})
		if err != nil {
			t.Fatal(err)
		}
		cg, err := coord.Get("cf1", backend.GetRequest{Partition: p})
		if err != nil {
			t.Fatal(err)
		}
		if sg.SimMillis != cg.SimMillis || len(sg.Records) != len(cg.Records) {
			t.Fatalf("get %d: coordinator (%.6f, %d recs) != single (%.6f, %d recs)",
				i, cg.SimMillis, len(cg.Records), sg.SimMillis, len(sg.Records))
		}
	}
}

// TestQuorumSurvivesOneNodeDownAllDoesNot is the acceptance scenario:
// RF=3 with one node down. QUORUM reads and writes succeed (with the
// down replica's failure charged), ALL reports unavailability.
func TestQuorumSurvivesOneNodeDownAllDoesNot(t *testing.T) {
	for _, level := range []executor.Consistency{executor.One, executor.Quorum, executor.All} {
		repl, coord, ns := newCluster(t, 3, 3, level, level, executor.HedgePolicy{})
		p := vals(int64(7))
		if _, err := coord.Put("cf1", p, vals(int64(0)), vals("fresh")); err != nil {
			t.Fatalf("%v: healthy put: %v", level, err)
		}
		replicas := repl.ReplicasFor("cf1", p)
		if err := ns.MarkDown(replicas[0]); err != nil {
			t.Fatal(err)
		}

		pr, perr := coord.Put("cf1", p, vals(int64(1)), vals("later"))
		gr, gerr := coord.Get("cf1", backend.GetRequest{Partition: p})
		switch level {
		case executor.All:
			for what, err := range map[string]error{"put": perr, "get": gerr} {
				fe, ok := faults.AsFault(err)
				if !ok || fe.Kind != faults.Unavailable {
					t.Errorf("ALL %s with a node down: want Unavailable fault, got %v", what, err)
				}
			}
		default:
			if perr != nil || gerr != nil {
				t.Fatalf("%v with one node down: put err %v, get err %v", level, perr, gerr)
			}
			if pr.SimMillis <= 0 || gr.SimMillis <= 0 {
				t.Errorf("%v: charged time missing", level)
			}
			if len(gr.Records) != 2 {
				t.Errorf("%v: got %d records, want 2", level, len(gr.Records))
			}
		}
		st := coord.Stats()
		if level == executor.All && st.WriteUnavailable == 0 {
			t.Error("ALL: WriteUnavailable not counted")
		}
		if level != executor.All && st.HintsQueued == 0 {
			t.Errorf("%v: missed write on the down replica should queue a hint", level)
		}
	}
}

// TestQuorumDownReplicaElevatesLatency pins "succeed with elevated
// (charged) latency": the failed attempt against the down replica
// charges its waste into the coordinated read that re-dispatches.
func TestQuorumDownReplicaElevatesLatency(t *testing.T) {
	repl, coord, ns := newCluster(t, 4, 3, executor.Quorum, executor.Quorum, executor.HedgePolicy{})
	p := vals(int64(3))
	if _, err := coord.Put("cf1", p, vals(int64(0)), vals("v")); err != nil {
		t.Fatal(err)
	}
	healthy, err := coord.Get("cf1", backend.GetRequest{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.MarkDown(repl.ReplicasFor("cf1", p)[0]); err != nil {
		t.Fatal(err)
	}
	degraded, err := coord.Get("cf1", backend.GetRequest{Partition: p})
	if err != nil {
		t.Fatalf("QUORUM read with one of 3 replicas down: %v", err)
	}
	if degraded.SimMillis <= healthy.SimMillis {
		t.Errorf("degraded read %.6fms not slower than healthy %.6fms",
			degraded.SimMillis, healthy.SimMillis)
	}
}

// TestHintedHandoffAndReadRepair walks the full recovery story: writes
// against a down replica queue hints; after the node returns, the
// first ONE-consistency read of that replica is stale (counted) and
// triggers read repair; every read after that is fresh. Stale-read
// rate therefore falls to zero once the fault window closes.
func TestHintedHandoffAndReadRepair(t *testing.T) {
	repl, coord, ns := newCluster(t, 3, 3, executor.One, executor.Quorum, executor.HedgePolicy{})
	p := vals(int64(11))
	if _, err := coord.Put("cf1", p, vals(int64(0)), vals("old")); err != nil {
		t.Fatal(err)
	}
	replicas := repl.ReplicasFor("cf1", p)
	primary := replicas[0] // ONE reads contact the primary first

	if err := ns.MarkDown(primary); err != nil {
		t.Fatal(err)
	}
	// Two writes the primary misses.
	if _, err := coord.Put("cf1", p, vals(int64(1)), vals("new1")); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Put("cf1", p, vals(int64(2)), vals("new2")); err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats().HintsQueued; got != 2 {
		t.Fatalf("HintsQueued = %d, want 2", got)
	}
	if coord.PendingHints() != 2 {
		t.Fatalf("PendingHints = %d, want 2", coord.PendingHints())
	}

	// During the outage, ONE reads re-dispatch to a fresh replica: the
	// answer is complete, not stale.
	r, err := coord.Get("cf1", backend.GetRequest{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != 3 {
		t.Fatalf("read during outage: %d records, want 3", len(r.Records))
	}
	if coord.Stats().StaleReads != 0 {
		t.Error("read served by a fresh replica must not count stale")
	}

	// The window closes. The first read lands on the primary before its
	// hints replay: stale answer, counted, repair charged.
	if err := ns.MarkUp(primary); err != nil {
		t.Fatal(err)
	}
	stale, err := coord.Get("cf1", backend.GetRequest{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	if st.StaleReads != 1 {
		t.Fatalf("StaleReads = %d, want 1 (first post-recovery read)", st.StaleReads)
	}
	if len(stale.Records) != 1 {
		t.Errorf("stale read returned %d records, want the primary's 1", len(stale.Records))
	}
	if st.ReadRepairs != 1 || st.HintsReplayed != 2 {
		t.Errorf("repair not booked: ReadRepairs=%d HintsReplayed=%d, want 1 and 2",
			st.ReadRepairs, st.HintsReplayed)
	}
	if coord.PendingHints() != 0 {
		t.Errorf("PendingHints = %d after repair, want 0", coord.PendingHints())
	}

	// Every subsequent read is fresh: the stale-read rate decays to
	// zero after the fault window closes.
	for i := 0; i < 5; i++ {
		r, err := coord.Get("cf1", backend.GetRequest{Partition: p})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Records) != 3 {
			t.Fatalf("post-repair read %d: %d records, want 3", i, len(r.Records))
		}
	}
	if got := coord.Stats().StaleReads; got != 1 {
		t.Errorf("StaleReads grew to %d after repair; recovery must stop staleness", got)
	}
}

// TestHandoffOnWrite exercises the write-path replay: after recovery, a
// write contacting a replica with pending hints replays them before
// applying, so a ONE read of that replica is already fresh.
func TestHandoffOnWrite(t *testing.T) {
	repl, coord, ns := newCluster(t, 3, 3, executor.One, executor.Quorum, executor.HedgePolicy{})
	p := vals(int64(11))
	primary := repl.ReplicasFor("cf1", p)[0]
	if err := ns.MarkDown(primary); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Put("cf1", p, vals(int64(0)), vals("missed")); err != nil {
		t.Fatal(err)
	}
	if err := ns.MarkUp(primary); err != nil {
		t.Fatal(err)
	}
	// This write reaches the primary: handoff replays the missed write
	// first, then applies the new one.
	if _, err := coord.Put("cf1", p, vals(int64(1)), vals("applied")); err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	if st.HintsReplayed != 1 {
		t.Fatalf("HintsReplayed = %d, want 1 (handoff on write)", st.HintsReplayed)
	}
	r, err := coord.Get("cf1", backend.GetRequest{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != 2 || coord.Stats().StaleReads != 0 {
		t.Errorf("read after write-path handoff: %d records, stale=%d; want 2 records, 0 stale",
			len(r.Records), coord.Stats().StaleReads)
	}
}

// TestHedgedReadBeatsSlowReplica pins the tail-latency win: with the
// primary stuck in a slow window, a hedged ONE read pays the hedge
// delay plus a healthy replica's time instead of the inflated time.
func TestHedgedReadBeatsSlowReplica(t *testing.T) {
	slowFactor := 50.0
	profile := faults.NodeProfile{SlowFactor: slowFactor}

	run := func(hedge executor.HedgePolicy) (float64, executor.ReplicaStats) {
		repl, coord, ns := newCluster(t, 3, 3, executor.One, executor.Quorum, hedge)
		p := vals(int64(5))
		if _, err := coord.Put("cf1", p, vals(int64(0)), vals("v")); err != nil {
			t.Fatal(err)
		}
		primary := repl.ReplicasFor("cf1", p)[0]
		// A guaranteed slow window on the primary: SlowRate 1 opens it
		// on the first post-configure operation.
		profile.SlowRate = 1
		if err := ns.SetProfile(primary, profile); err != nil {
			t.Fatal(err)
		}
		r, err := coord.Get("cf1", backend.GetRequest{Partition: p})
		if err != nil {
			t.Fatal(err)
		}
		return r.SimMillis, coord.Stats()
	}

	slow, _ := run(executor.HedgePolicy{})
	hedged, st := run(executor.HedgePolicy{Enabled: true})
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedge counters = %+v, want 1 hedge, 1 win", st)
	}
	if hedged >= slow {
		t.Errorf("hedged read %.3fms not faster than unhedged %.3fms", hedged, slow)
	}
	// The hedged read pays delay + healthy replica, far below the slow
	// replica's inflated time.
	if hedged > slow/2 {
		t.Errorf("hedged read %.3fms did not materially beat %.3fms", hedged, slow)
	}
}

// TestCoordinatorDeterminism: identical op sequences with the same seed
// produce bit-identical charged times and stats.
func TestCoordinatorDeterminism(t *testing.T) {
	run := func() ([]float64, executor.ReplicaStats) {
		_, coord, ns := newCluster(t, 5, 3, executor.Quorum, executor.Quorum, executor.HedgePolicy{Enabled: true})
		ns.SetDefaultProfile(faults.NodeRate(0.2))
		var times []float64
		for i := 0; i < 200; i++ {
			p := vals(int64(i % 17))
			if pr, err := coord.Put("cf1", p, vals(int64(i)), vals("v")); err == nil {
				times = append(times, pr.SimMillis)
			} else {
				times = append(times, faults.SimCost(err))
			}
			if gr, err := coord.Get("cf1", backend.GetRequest{Partition: p}); err == nil {
				times = append(times, gr.SimMillis)
			} else {
				times = append(times, faults.SimCost(err))
			}
		}
		return times, coord.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	for i := range t1 {
		if math.Float64bits(t1[i]) != math.Float64bits(t2[i]) {
			t.Fatalf("op %d: %.9f != %.9f", i, t1[i], t2[i])
		}
	}
}
