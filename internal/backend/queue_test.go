package backend

import (
	"errors"
	"math/rand"
	"testing"

	"nose/internal/obs"
)

// TestQueueFIFOStartTimesNondecreasing pins the FIFO discipline: under
// a nondecreasing arrival clock (which the discrete-event driver
// guarantees), operations on one node start service in arrival order —
// the start time now+delay never decreases across admissions.
func TestQueueFIFOStartTimesNondecreasing(t *testing.T) {
	for _, capacity := range []int{1, 2, 3} {
		q := NewNodeQueues(1, capacity)
		rng := rand.New(rand.NewSource(1))
		now, lastStart := 0.0, 0.0
		for i := 0; i < 500; i++ {
			now += rng.Float64() * 2
			q.SetNow(now)
			delay, err := q.Admit(0, rng.Float64()*5)
			if err != nil {
				t.Fatal(err)
			}
			start := now + delay
			if start < lastStart {
				t.Fatalf("capacity %d, admission %d: start %.6f before previous start %.6f",
					capacity, i, start, lastStart)
			}
			lastStart = start
		}
	}
}

// TestQueueWorkConservation pins work conservation against an
// independent oracle: an operation waits (delay > 0) only when every
// server is busy at its arrival, and when it waits it is charged
// exactly the earliest server's remaining busy time — no server idles
// while an operation queues.
func TestQueueWorkConservation(t *testing.T) {
	const capacity = 3
	q := NewNodeQueues(1, capacity)
	// Oracle: our own copy of the servers' free times.
	free := make([]float64, capacity)
	rng := rand.New(rand.NewSource(2))
	now := 0.0
	for i := 0; i < 1000; i++ {
		now += rng.Float64()
		q.SetNow(now)
		service := rng.Float64() * 4
		delay, err := q.Admit(0, service)
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for s := 1; s < capacity; s++ {
			if free[s] < free[best] {
				best = s
			}
		}
		want := free[best] - now
		if want < 0 {
			want = 0
		}
		if delay != want {
			t.Fatalf("admission %d at t=%.6f: delay %.6f, oracle %.6f", i, now, delay, want)
		}
		if delay > 0 {
			// Waiting implies no idle server: every free time > now.
			for s, f := range free {
				if f <= now {
					t.Fatalf("admission %d waited %.6f while server %d was free at %.6f (now %.6f)",
						i, delay, s, f, now)
				}
			}
		}
		start := now + delay
		free[best] = start + service
	}
}

// TestQueueZeroCapacityRefuses pins the boundary: a zero-capacity node
// refuses with ErrNoCapacity and charges nothing, while capacity 1 on
// the same queues admits normally.
func TestQueueZeroCapacityRefuses(t *testing.T) {
	q := NewNodeQueues(2, 0)
	if _, err := q.Admit(0, 1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("capacity 0: err = %v, want ErrNoCapacity", err)
	}
	if st := q.Stats(0); st.Admitted != 0 || st.BusyMillis != 0 || st.DelayMillis != 0 {
		t.Fatalf("refused operation left accounting behind: %+v", st)
	}
	if u := q.Utilization(0, 100); u != 0 {
		t.Fatalf("zero-capacity utilization = %v, want 0", u)
	}

	// Exact boundary: capacity 1 is the smallest admitting pool.
	if delay, err := NewNodeQueues(2, 1).Admit(1, 2); err != nil || delay != 0 {
		t.Fatalf("capacity 1 idle admit: delay=%v err=%v", delay, err)
	}
}

// TestQueueDelayAndDepthAccounting pins the depth and delay counters on
// a hand-checked single-server scenario.
func TestQueueDelayAndDepthAccounting(t *testing.T) {
	q := NewNodeQueues(1, 1)
	// t=0: op A, service 10 -> starts now, no delay.
	if d, _ := q.Admit(0, 10); d != 0 {
		t.Fatalf("A: delay %v, want 0", d)
	}
	// t=2: op B arrives while A runs -> waits 8, starts at 10.
	q.SetNow(2)
	if d, _ := q.Admit(0, 5); d != 8 {
		t.Fatalf("B: delay %v, want 8", d)
	}
	// t=4: op C arrives behind B -> starts at 15, waits 11; depth sees B
	// still queued (started at 10 > 4) -> depth 1.
	q.SetNow(4)
	if d, _ := q.Admit(0, 1); d != 11 {
		t.Fatalf("C: delay %v, want 11", d)
	}
	st := q.Stats(0)
	if st.Admitted != 3 || st.BusyMillis != 16 || st.DelayMillis != 19 || st.DepthMax != 1 {
		t.Fatalf("stats %+v, want Admitted=3 BusyMillis=16 DelayMillis=19 DepthMax=1", st)
	}
	// Busy 16ms over a 32ms horizon on one server: utilization 1/2.
	if u := q.Utilization(0, 32); u != 0.5 {
		t.Fatalf("utilization %v, want 0.5", u)
	}
}

// TestQueuePublishFillsGauges: SetObs registers the per-node gauges and
// Publish fills them from the run's final stats.
func TestQueuePublishFillsGauges(t *testing.T) {
	reg := obs.NewRegistry()
	q := NewNodeQueues(2, 1)
	q.SetObs(reg)
	if _, err := q.Admit(0, 10); err != nil {
		t.Fatal(err)
	}
	q.SetNow(1)
	if _, err := q.Admit(0, 10); err != nil {
		t.Fatal(err)
	}
	q.Publish(40)
	if got := reg.Counter("queue.admitted").Value(); got != 2 {
		t.Errorf("queue.admitted = %v, want 2", got)
	}
	if got := reg.Histogram("queue.delay.sim_ms").Count(); got != 2 {
		t.Errorf("queue.delay.sim_ms observations = %v, want 2", got)
	}
	if got := reg.Gauge("queue.node0.utilization").Value(); got != 0.5 {
		t.Errorf("node0 utilization gauge = %v, want 0.5", got)
	}
	if got := reg.Gauge("queue.node1.utilization").Value(); got != 0 {
		t.Errorf("node1 utilization gauge = %v, want 0", got)
	}
}
