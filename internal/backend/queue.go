package backend

import (
	"errors"
	"fmt"
	"sync"

	"nose/internal/obs"
)

// ErrNoCapacity reports an operation admitted to a node whose service
// capacity is zero: the node can never start the work, so the request
// is not queued — it is refused outright. The coordinator treats the
// refusal like a downed replica, so at the statement level it surfaces
// as unavailability, not an infinite wait.
var ErrNoCapacity = errors.New("backend: node has zero service capacity")

// nodeQueue is one node's FIFO service station: Capacity parallel
// servers drain admitted operations in arrival order. State is lazy —
// instead of simulating departures, each server records the simulated
// time it becomes free, and an admission claims the earliest-free
// server.
type nodeQueue struct {
	// servers[i] is the simulated time server i is free; len(servers)
	// is the node's service capacity.
	servers []float64
	// starts holds the start times of recently admitted operations that
	// had not yet started service when admitted, pruned lazily; its
	// live length is the queue depth seen by an arriving operation.
	starts []float64
	// busyMillis accumulates admitted service time, for utilization.
	busyMillis float64
	// delayMillis accumulates queue delay charged to operations.
	delayMillis float64
	// admitted counts operations through the queue.
	admitted int64
	// depthMax is the largest queue depth observed at any admission.
	depthMax int
}

// NodeQueues models per-node service contention for a replicated
// cluster: every replica-level operation the coordinator issues is
// admitted to its node's FIFO queue and charged the simulated time it
// waits for a free server on top of its service time. Without queues a
// cluster has infinite capacity — summed statement costs stay flat no
// matter how much load arrives; with them, offered load beyond the
// nodes' aggregate service rate shows up as queue delay, which is what
// bends a latency-under-load curve upward at saturation.
//
// The model is deliberately coarse-grained and fully deterministic:
//
//   - The clock is external. A driver (internal/load's event loop)
//     calls SetNow with each statement's start time; every operation
//     of that statement arrives at that instant (coordinated fan-out
//     is treated as simultaneous arrival).
//   - Admissions must come in nondecreasing SetNow order, which the
//     discrete-event loop guarantees by popping events in time order.
//     Under that ordering the queue is FIFO per node: start times
//     never decrease, and no server idles while an operation waits
//     (work conservation) because an admission always claims the
//     earliest-free server.
//   - A node with zero capacity refuses admissions with ErrNoCapacity
//     rather than queueing forever.
//
// NodeQueues is safe for concurrent use; determinism still requires a
// single-threaded driver, which is how internal/load runs it.
type NodeQueues struct {
	mu    sync.Mutex
	now   float64
	nodes []nodeQueue

	depthGauges []*obs.Gauge
	utilGauges  []*obs.Gauge
	admitCtr    *obs.Counter
	delayHist   *obs.Histogram
}

// NewNodeQueues builds queues for n nodes, each with the given service
// capacity (parallel servers). Capacity may be zero — such nodes refuse
// every operation — but not negative; n is clamped to at least 1.
func NewNodeQueues(n, capacity int) *NodeQueues {
	if n < 1 {
		n = 1
	}
	if capacity < 0 {
		capacity = 0
	}
	q := &NodeQueues{nodes: make([]nodeQueue, n)}
	for i := range q.nodes {
		q.nodes[i].servers = make([]float64, capacity)
	}
	return q
}

// SetObs routes queue metrics into a registry: a queue.admitted counter
// and a queue.delay.sim_ms histogram of per-operation queue delays
// (both deterministic under a single-threaded driver), plus per-node
// queue.node<i>.depth_max and queue.node<i>.utilization gauges that
// Publish fills at the end of a run.
func (q *NodeQueues) SetObs(r *obs.Registry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.depthGauges = make([]*obs.Gauge, len(q.nodes))
	q.utilGauges = make([]*obs.Gauge, len(q.nodes))
	for i := range q.nodes {
		q.depthGauges[i] = r.Gauge(fmt.Sprintf("queue.node%d.depth_max", i))
		q.utilGauges[i] = r.Gauge(fmt.Sprintf("queue.node%d.utilization", i))
	}
	q.admitCtr = r.Counter("queue.admitted")
	q.delayHist = r.Histogram("queue.delay.sim_ms")
}

// SetNow advances the external simulated clock: subsequent admissions
// arrive at t. Drivers must advance the clock monotonically.
func (q *NodeQueues) SetNow(t float64) {
	q.mu.Lock()
	if t > q.now {
		q.now = t
	}
	q.mu.Unlock()
}

// NodeCount returns the number of nodes the queues cover.
func (q *NodeQueues) NodeCount() int { return len(q.nodes) }

// Capacity returns a node's parallel server count.
func (q *NodeQueues) Capacity(node int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.nodes[node].servers)
}

// Admit charges one operation with the given service time to a node's
// queue at the current clock. It returns the queue delay — the
// simulated time the operation waits for a server before its service
// time starts — which the caller must add to the operation's charged
// time. Zero-capacity nodes return ErrNoCapacity and charge nothing.
func (q *NodeQueues) Admit(node int, service float64) (delay float64, err error) {
	if service < 0 {
		service = 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	n := &q.nodes[node]
	if len(n.servers) == 0 {
		return 0, fmt.Errorf("backend: node %d: %w", node, ErrNoCapacity)
	}

	// Queue depth seen on arrival: previously admitted operations that
	// have not yet started service. Prune the ones that started.
	live := n.starts[:0]
	for _, s := range n.starts {
		if s > q.now {
			live = append(live, s)
		}
	}
	n.starts = live
	if d := len(n.starts); d > n.depthMax {
		n.depthMax = d
	}

	// Claim the earliest-free server (work conservation: if any server
	// is idle at arrival, the operation starts immediately).
	best := 0
	for i := 1; i < len(n.servers); i++ {
		if n.servers[i] < n.servers[best] {
			best = i
		}
	}
	start := n.servers[best]
	if start < q.now {
		start = q.now
	}
	n.servers[best] = start + service
	delay = start - q.now
	if delay > 0 {
		n.starts = append(n.starts, start)
	}

	n.admitted++
	n.busyMillis += service
	n.delayMillis += delay
	if q.admitCtr != nil {
		q.admitCtr.Inc()
		q.delayHist.Observe(delay)
	}
	return delay, nil
}

// QueueStats is one node's accumulated queueing behavior.
type QueueStats struct {
	// Admitted counts operations served through the node's queue.
	Admitted int64
	// BusyMillis is total admitted service time; over a run of horizon
	// H with capacity c, utilization is BusyMillis / (c*H).
	BusyMillis float64
	// DelayMillis is total queue delay charged to operations.
	DelayMillis float64
	// DepthMax is the largest arrival-time queue depth observed.
	DepthMax int
}

// Stats returns one node's accumulated counters.
func (q *NodeQueues) Stats(node int) QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := &q.nodes[node]
	return QueueStats{
		Admitted:    n.admitted,
		BusyMillis:  n.busyMillis,
		DelayMillis: n.delayMillis,
		DepthMax:    n.depthMax,
	}
}

// Utilization returns a node's busy fraction over a run of the given
// simulated horizon, clamped to [0, 1]. Zero-capacity nodes are 0.
func (q *NodeQueues) Utilization(node int, horizonMillis float64) float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := &q.nodes[node]
	cap := float64(len(n.servers))
	if cap == 0 || horizonMillis <= 0 {
		return 0
	}
	u := n.busyMillis / (cap * horizonMillis)
	if u > 1 {
		u = 1
	}
	return u
}

// Publish fills the per-node gauges registered by SetObs with the
// run's final queue depths and utilizations over the given horizon.
func (q *NodeQueues) Publish(horizonMillis float64) {
	for i := range q.nodes {
		st := q.Stats(i)
		u := q.Utilization(i, horizonMillis)
		q.mu.Lock()
		if q.depthGauges != nil {
			q.depthGauges[i].Set(float64(st.DepthMax))
			q.utilGauges[i].Set(u)
		}
		q.mu.Unlock()
	}
}
