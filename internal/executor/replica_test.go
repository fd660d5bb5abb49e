package executor_test

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/obs"
)

// newCluster builds a replicated store with one column family and a
// coordinator at the given consistency levels, returning both plus the
// node fault set and the registry the coordinator and the fault set
// count into.
func newCluster(t *testing.T, n, rf int, read, write executor.Consistency, hedge bool) (*backend.ReplicatedStore, *executor.Coordinator, *faults.Nodes, *obs.Registry) {
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
	reg := obs.NewRegistry()
	coord.SetObs(reg)
	ns.SetObs(reg)
	return repl, coord, ns, reg
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
	_, coord, _, _ := newCluster(t, 5, 3, executor.All, executor.All, false)

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
		repl, coord, ns, reg := newCluster(t, 3, 3, level, level, false)
		p := vals(int64(7))
		if _, err := coord.Put("cf1", p, vals(int64(0)), vals("fresh")); err != nil {
			t.Fatalf("%v: healthy put: %v", level, err)
		}
		replicas := repl.ReplicasFor(nil, "cf1", p)
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
		if level == executor.All && executor.RegisteredCounter(t, reg, "coord.write_unavailable") == 0 {
			t.Error("ALL: coord.write_unavailable not counted")
		}
		if level != executor.All && executor.RegisteredCounter(t, reg, "coord.hints_queued") == 0 {
			t.Errorf("%v: missed write on the down replica should queue a hint", level)
		}
	}
}

// TestQuorumDownReplicaElevatesLatency pins "succeed with elevated
// (charged) latency": the failed attempt against the down replica
// charges its waste into the coordinated read that re-dispatches.
func TestQuorumDownReplicaElevatesLatency(t *testing.T) {
	repl, coord, ns, _ := newCluster(t, 4, 3, executor.Quorum, executor.Quorum, false)
	p := vals(int64(3))
	if _, err := coord.Put("cf1", p, vals(int64(0)), vals("v")); err != nil {
		t.Fatal(err)
	}
	healthy, err := coord.Get("cf1", backend.GetRequest{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.MarkDown(repl.ReplicasFor(nil, "cf1", p)[0]); err != nil {
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
	repl, coord, ns, reg := newCluster(t, 3, 3, executor.One, executor.Quorum, false)
	counter := func(name string) int64 { return executor.RegisteredCounter(t, reg, name) }
	p := vals(int64(11))
	if _, err := coord.Put("cf1", p, vals(int64(0)), vals("old")); err != nil {
		t.Fatal(err)
	}
	replicas := repl.ReplicasFor(nil, "cf1", p)
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
	if got := counter("coord.hints_queued"); got != 2 {
		t.Fatalf("coord.hints_queued = %d, want 2", got)
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
	if counter("coord.stale_reads") != 0 {
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
	if got := counter("coord.stale_reads"); got != 1 {
		t.Fatalf("coord.stale_reads = %d, want 1 (first post-recovery read)", got)
	}
	if len(stale.Records) != 1 {
		t.Errorf("stale read returned %d records, want the primary's 1", len(stale.Records))
	}
	if repairs, replayed := counter("coord.read_repairs"), counter("coord.hints_replayed"); repairs != 1 || replayed != 2 {
		t.Errorf("repair not booked: coord.read_repairs=%d coord.hints_replayed=%d, want 1 and 2", repairs, replayed)
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
	if got := counter("coord.stale_reads"); got != 1 {
		t.Errorf("coord.stale_reads grew to %d after repair; recovery must stop staleness", got)
	}
}

// TestHandoffOnWrite exercises the write-path replay: after recovery, a
// write contacting a replica with pending hints replays them before
// applying, so a ONE read of that replica is already fresh.
func TestHandoffOnWrite(t *testing.T) {
	repl, coord, ns, reg := newCluster(t, 3, 3, executor.One, executor.Quorum, false)
	p := vals(int64(11))
	primary := repl.ReplicasFor(nil, "cf1", p)[0]
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
	if got := executor.RegisteredCounter(t, reg, "coord.hints_replayed"); got != 1 {
		t.Fatalf("coord.hints_replayed = %d, want 1 (handoff on write)", got)
	}
	r, err := coord.Get("cf1", backend.GetRequest{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	if stale := executor.RegisteredCounter(t, reg, "coord.stale_reads"); len(r.Records) != 2 || stale != 0 {
		t.Errorf("read after write-path handoff: %d records, stale=%d; want 2 records, 0 stale", len(r.Records), stale)
	}
}

// TestHedgedReadBeatsSlowReplica pins the tail-latency win: with the
// primary stuck in a slow window, a hedged ONE read pays the hedge
// delay plus a healthy replica's time instead of the inflated time.
func TestHedgedReadBeatsSlowReplica(t *testing.T) {
	slowFactor := 50.0
	profile := faults.Profile{SlowFactor: slowFactor}

	run := func(hedge bool) (float64, *obs.Registry) {
		repl, coord, ns, reg := newCluster(t, 3, 3, executor.One, executor.Quorum, hedge)
		p := vals(int64(5))
		if _, err := coord.Put("cf1", p, vals(int64(0)), vals("v")); err != nil {
			t.Fatal(err)
		}
		primary := repl.ReplicasFor(nil, "cf1", p)[0]
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
		return r.SimMillis, reg
	}

	slow, _ := run(false)
	hedged, reg := run(true)
	if h, w := executor.RegisteredCounter(t, reg, "coord.hedges"), executor.RegisteredCounter(t, reg, "coord.hedge_wins"); h != 1 || w != 1 {
		t.Fatalf("%d hedges, %d wins; want 1 and 1", h, w)
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
// produce bit-identical charged times and counters.
func TestCoordinatorDeterminism(t *testing.T) {
	run := func() ([]float64, map[string]int64) {
		_, coord, ns, reg := newCluster(t, 5, 3, executor.Quorum, executor.Quorum, true)
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
		return times, reg.Snapshot().Counters
	}
	t1, s1 := run()
	t2, s2 := run()
	if !maps.Equal(s1, s2) {
		t.Fatalf("counters differ across identical runs:\n%v\n%v", s1, s2)
	}
	for i := range t1 {
		if math.Float64bits(t1[i]) != math.Float64bits(t2[i]) {
			t.Fatalf("op %d: %.9f != %.9f", i, t1[i], t2[i])
		}
	}
}

// TestCoordinatorGetIntoHoldsTheFreshAnswer: a caller's buffer is filled
// by the first replica read and by no other. At RF 3 and QUORUM, a
// replace the second-contacted replica misses leaves it holding a hint;
// once it is back, a read contacts the fresh first replica and the stale
// second, and must answer the first's records from the caller's buffer.
// Were both reads appending into that buffer, the stale record would
// overwrite the fresh one in place.
func TestCoordinatorGetIntoHoldsTheFreshAnswer(t *testing.T) {
	repl, coord, ns, reg := newCluster(t, 3, 3, executor.Quorum, executor.Quorum, false)
	p := vals(int64(11))
	if _, err := coord.Put("cf1", p, vals(int64(0)), vals("old")); err != nil {
		t.Fatal(err)
	}
	second := repl.ReplicasFor(nil, "cf1", p)[1]
	must(t, ns.MarkDown(second))
	if _, err := coord.Put("cf1", p, vals(int64(0)), vals("new")); err != nil {
		t.Fatal(err)
	}
	if coord.PendingHints() != 1 {
		t.Fatalf("PendingHints = %d, want the second replica's 1", coord.PendingHints())
	}
	must(t, ns.MarkUp(second))

	buf := make([]backend.Record, 0, 4)
	r, err := coord.Get("cf1", backend.GetRequest{Partition: p, Into: buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != 1 || r.Records[0].Values[0] != "new" {
		t.Fatalf("QUORUM read with a caller buffer = %v, want the fresh replica's [new]", r.Records)
	}
	if &r.Records[0] != &buf[:1][0] {
		t.Error("the answering first replica's records are not in the caller's buffer")
	}
	if got := executor.RegisteredCounter(t, reg, "coord.read_repairs"); got != 1 {
		t.Errorf("coord.read_repairs = %d, want 1 (the second replica repaired after answering)", got)
	}
}

// TestCoordinatorAnswersNeverAliasScratch: a coordinated read answered
// by a replica other than the first — a fresh one while the first has
// hints pending, or a hedge that beat the first — returns records
// copied out of the coordinator's scratch into the caller's buffer.
// Later coordinated puts and gets reuse that scratch and must leave the
// answer as it was; and the caller's buffer, once the call returns, is
// written by no further replica read.
func TestCoordinatorAnswersNeverAliasScratch(t *testing.T) {
	cases := []struct {
		name  string
		read  executor.Consistency
		hedge bool
		// stage runs after partition p holds "old" on every replica and
		// arranges that the next read is answered, want, by a replica
		// other than the first, counting counter once.
		stage   func(t *testing.T, repl *backend.ReplicatedStore, coord *executor.Coordinator, ns *faults.Nodes, p []backend.Value)
		want    string
		counter string
	}{{
		name: "hints pending on the first replica", read: executor.Quorum,
		stage: func(t *testing.T, repl *backend.ReplicatedStore, coord *executor.Coordinator, ns *faults.Nodes, p []backend.Value) {
			first := repl.ReplicasFor(nil, "cf1", p)[0]
			must(t, ns.MarkDown(first))
			if _, err := coord.Put("cf1", p, vals(int64(0)), vals("new")); err != nil {
				t.Fatal(err)
			}
			must(t, ns.MarkUp(first))
		},
		want: "new", counter: "coord.read_repairs",
	}, {
		name: "a hedge wins slot 0", read: executor.One, hedge: true,
		stage: func(t *testing.T, repl *backend.ReplicatedStore, coord *executor.Coordinator, ns *faults.Nodes, p []backend.Value) {
			// SlowRate 1 opens a slow window on the primary's next
			// operation, long enough for every read below.
			first := repl.ReplicasFor(nil, "cf1", p)[0]
			must(t, ns.SetProfile(first, faults.Profile{SlowRate: 1, SlowFactor: 50}))
		},
		want: "old", counter: "coord.hedge_wins",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			repl, coord, ns, reg := newCluster(t, 3, 3, tc.read, executor.Quorum, tc.hedge)
			p := vals(int64(11))
			if _, err := coord.Put("cf1", p, vals(int64(0)), vals("old")); err != nil {
				t.Fatal(err)
			}
			tc.stage(t, repl, coord, ns, p)

			buf := make([]backend.Record, 0, 4)
			r, err := coord.Get("cf1", backend.GetRequest{Partition: p, Into: buf})
			if err != nil {
				t.Fatal(err)
			}
			if got := executor.RegisteredCounter(t, reg, tc.counter); got != 1 {
				t.Fatalf("%s = %d, want 1: the read was not answered past the first replica", tc.counter, got)
			}
			if len(r.Records) != 1 || r.Records[0].Values[0] != tc.want {
				t.Fatalf("answer = %v, want [%s]", r.Records, tc.want)
			}
			if &r.Records[0] != &buf[:1][0] {
				t.Error("the answer is not in the caller's buffer")
			}
			answer := cloneRecords(r.Records)
			held := cloneRecords(buf[:cap(buf)])

			// A further put and get: the get reads two replicas again, the
			// second into the same scratch.
			if _, err := coord.Put("cf1", p, vals(int64(0)), vals("later")); err != nil {
				t.Fatal(err)
			}
			reads := executor.RegisteredCounter(t, reg, "coord.replica_reads")
			r2, err := coord.Get("cf1", backend.GetRequest{Partition: p, Into: make([]backend.Record, 0, 4)})
			if err != nil {
				t.Fatal(err)
			}
			if got := executor.RegisteredCounter(t, reg, "coord.replica_reads") - reads; got != 2 {
				t.Fatalf("the second get read %d replicas, want 2", got)
			}
			if len(r2.Records) != 1 || r2.Records[0].Values[0] != "later" {
				t.Fatalf("second answer = %v, want [later]", r2.Records)
			}
			if !reflect.DeepEqual(r.Records, answer) {
				t.Errorf("the first answer changed under later operations: %v, was %v", r.Records, answer)
			}
			if !reflect.DeepEqual(buf[:cap(buf)], held) {
				t.Errorf("the caller's buffer was written after its get returned: %v, was %v", buf[:cap(buf)], held)
			}
		})
	}
}

// cloneRecords copies records and their key and value slices.
func cloneRecords(recs []backend.Record) []backend.Record {
	out := make([]backend.Record, len(recs))
	for i, r := range recs {
		out[i] = backend.Record{Clustering: slices.Clone(r.Clustering), Values: slices.Clone(r.Values)}
	}
	return out
}
