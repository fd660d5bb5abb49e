package executor_test

import (
	"errors"
	"testing"

	"nose/internal/backend"
	"nose/internal/executor"
	"nose/internal/faults"
)

// TestCoordinatorChargesQueueDelay pins the queue integration: with
// single-server nodes, two coordinated reads arriving at the same
// simulated instant contend — the first is charged its bare service
// time, the second additionally waits for the servers to free up.
func TestCoordinatorChargesQueueDelay(t *testing.T) {
	_, bare, _, _ := newCluster(t, 3, 3, executor.All, executor.All, false)
	repl, coord, _, _ := newCluster(t, 3, 3, executor.All, executor.All, false)
	q := backend.NewNodeQueues(repl.NodeCount(), 1)
	coord.SetQueues(q)

	p := vals(int64(1))
	if _, err := bare.Put("cf1", p, vals(int64(0)), vals("v")); err != nil {
		t.Fatal(err)
	}
	// Seed the queued cluster before the measured reads so both hold the
	// same row; the write heats the queues, so move the clock well past it.
	if _, err := coord.Put("cf1", p, vals(int64(0)), vals("v")); err != nil {
		t.Fatal(err)
	}
	q.SetNow(1e6)

	base, err := bare.Get("cf1", backend.GetRequest{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	first, err := coord.Get("cf1", backend.GetRequest{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	if first.SimMillis != base.SimMillis {
		t.Fatalf("idle-queue read %.6fms != unqueued read %.6fms", first.SimMillis, base.SimMillis)
	}
	// Same arrival instant: every replica's server is now busy, so the
	// second read queues behind the first on each node.
	second, err := coord.Get("cf1", backend.GetRequest{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	if second.SimMillis <= first.SimMillis {
		t.Fatalf("contended read %.6fms not above idle read %.6fms", second.SimMillis, first.SimMillis)
	}
	stats := q.Stats(0)
	total := 0.0
	for n := 0; n < q.NodeCount(); n++ {
		total += q.Stats(n).DelayMillis
	}
	if total <= 0 {
		t.Fatalf("no queue delay accumulated (node0 stats %+v)", stats)
	}
}

// TestCoordinatorZeroCapacityUnavailable pins the refusal boundary at
// the coordinator: zero-capacity nodes are treated like downed
// replicas, so reads and writes fail with Kind Unavailable rather than
// queueing forever — while capacity 1 on the same cluster serves them.
func TestCoordinatorZeroCapacityUnavailable(t *testing.T) {
	for _, level := range []executor.Consistency{executor.One, executor.Quorum, executor.All} {
		repl, coord, _, reg := newCluster(t, 3, 3, level, level, false)
		q := backend.NewNodeQueues(repl.NodeCount(), 1)
		coord.SetQueues(q)
		p := vals(int64(9))
		if _, err := coord.Put("cf1", p, vals(int64(0)), vals("v")); err != nil {
			t.Fatalf("%v: capacity 1 put: %v", level, err)
		}
		if _, err := coord.Get("cf1", backend.GetRequest{Partition: p}); err != nil {
			t.Fatalf("%v: capacity 1 get: %v", level, err)
		}

		coord.SetQueues(backend.NewNodeQueues(repl.NodeCount(), 0))
		_, err := coord.Get("cf1", backend.GetRequest{Partition: p})
		var fe *faults.Error
		if !errors.As(err, &fe) || fe.Kind != faults.Unavailable {
			t.Fatalf("%v: get with zero capacity: err = %v, want faults.Unavailable", level, err)
		}
		_, err = coord.Put("cf1", p, vals(int64(0)), vals("w"))
		if !errors.As(err, &fe) || fe.Kind != faults.Unavailable {
			t.Fatalf("%v: put with zero capacity: err = %v, want faults.Unavailable", level, err)
		}
		if r, w := executor.RegisteredCounter(t, reg, "coord.read_unavailable"), executor.RegisteredCounter(t, reg, "coord.write_unavailable"); r == 0 || w == 0 {
			t.Errorf("%v: unavailability not counted: %d reads, %d writes", level, r, w)
		}
	}
}
