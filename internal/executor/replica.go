package executor

import (
	"fmt"
	"sort"
	"sync"

	"nose/internal/backend"
	"nose/internal/faults"
	"nose/internal/obs"
)

// Consistency selects how many replicas a coordinated operation must
// reach before it counts as successful — the tunable-consistency knob
// of the extensible record stores the paper targets.
type Consistency int

const (
	// One requires a single replica: fastest, weakest. Reads at One can
	// observe stale data while hinted handoff is pending.
	One Consistency = iota
	// Quorum requires a majority of the replicas (RF/2 + 1). Overlapping
	// read and write quorums make stale reads possible only when a
	// majority of replicas missed a write.
	Quorum
	// All requires every replica: strongest, and unavailable as soon as
	// one replica is down.
	All
)

// Required returns the number of replica acknowledgements the level
// needs at the given replication factor.
func (c Consistency) Required(rf int) int {
	switch c {
	case One:
		return 1
	case All:
		return rf
	default:
		return rf/2 + 1
	}
}

// String names the level as in CQL.
func (c Consistency) String() string {
	switch c {
	case One:
		return "ONE"
	case Quorum:
		return "QUORUM"
	case All:
		return "ALL"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// HedgePolicy configures hedged (speculative) reads: when the critical
// path of a coordinated read exceeds hedgeDelayMillis — a replica stuck in a
// slow window, typically — the coordinator dispatches the same read to
// one spare replica and takes whichever answer lands first. Hedging
// trades a little extra replica load for tail-latency robustness; it
// never changes results, only timing.
type HedgePolicy struct {
	// Enabled turns hedging on.
	Enabled bool
}

// hedgeDelayMillis is the simulated latency above which a spare replica
// is tried: a few multiples of a healthy get's service time under
// cost.DefaultParams — late enough that healthy reads never hedge,
// early enough to beat a slow-window replica.
const hedgeDelayMillis = 2.0

// ReplicaStats counts the distributed-systems work a coordinator
// performed. Everything here is also charged into statement SimMillis;
// the counters exist so reports can attribute the latency.
type ReplicaStats struct {
	// Reads and Writes count coordinated operations.
	Reads, Writes int64
	// ReplicaReads and ReplicaWrites count per-replica attempts,
	// including failed ones and hedges.
	ReplicaReads, ReplicaWrites int64
	// ReadUnavailable and WriteUnavailable count coordinated operations
	// that could not reach their consistency level.
	ReadUnavailable, WriteUnavailable int64
	// Hedges counts speculative reads dispatched; HedgeWins counts those
	// that beat the slow replica.
	Hedges, HedgeWins int64
	// HintsQueued counts writes stored as hints for an unreachable
	// replica; HintsReplayed counts hinted writes later applied.
	HintsQueued, HintsReplayed int64
	// ReadRepairs counts replicas brought up to date during a read.
	ReadRepairs int64
	// StaleReads counts coordinated reads whose every contacted replica
	// had hinted writes pending — the answer may predate those writes.
	StaleReads int64
}

// hint is one write a replica missed, queued for handoff.
type hint struct {
	partition, clustering []backend.Value
	values                []backend.Value
	delete                bool
}

// hintKey addresses the pending hints of one partition on one node.
type hintKey struct {
	node int
	cf   string
	part string
}

// CoordinatorOptions configures a replica coordinator.
type CoordinatorOptions struct {
	// Read and Write are the consistency levels for coordinated reads
	// and writes.
	Read, Write Consistency
	// Hedge configures speculative reads.
	Hedge HedgePolicy
	// Nodes supplies node-level fault domains; nil means a healthy
	// cluster.
	Nodes *faults.Nodes
	// Crashes arms deterministic crash injection inside the hinted-handoff
	// and read-repair paths: a crash fires just before a pending hint
	// batch is replayed, so the hints are lost with the process — exactly
	// the window where an acknowledged write's durability rests on the
	// replicas that already applied it. Nil never crashes.
	Crashes *faults.Crashes
}

// Coordinator drives a ReplicatedStore the way a Cassandra coordinator
// node drives its replicas: every Get fans out to enough replicas for
// the read consistency level, every Put/Delete to all replicas waiting
// for enough acknowledgements, with node-level faults (from
// faults.Nodes) injected per replica attempt. It implements
// backend.KVBackend, so the executor, retry policy and plan-level
// failover all work unchanged on top of it.
//
// Recovery is modeled after the real systems:
//
//   - Hinted handoff: a write that cannot reach a replica is stored as
//     a hint and replayed the next time the coordinator successfully
//     contacts that replica for the same partition — before the new
//     operation, preserving write order.
//   - Read repair: a read that contacts a replica with pending hints
//     replays them after answering, charging the repair into the read's
//     simulated time. The answering read itself may be stale (counted
//     in ReplicaStats.StaleReads) — exactly the weak-consistency window
//     the real systems have — but the next read of the partition is
//     fresh.
//
// All coordination latency — replica fan-out, failed attempts, hedges,
// handoff and repair — is charged into the returned SimMillis, so a
// degraded cluster is measurably slower, never silently fault-free.
// Simulated latency models concurrent fan-out: a coordinated operation
// costs as much as the k-th fastest replica it waited for, not the sum.
type Coordinator struct {
	repl    *backend.ReplicatedStore
	read    Consistency
	write   Consistency
	hedge   HedgePolicy
	nodes   *faults.Nodes
	crashes *faults.Crashes

	mu     sync.Mutex
	queues *backend.NodeQueues
	hints  map[hintKey][]hint
	co     coordObs
}

// coordObs holds the coordinator's instruments — its only counters. A
// new coordinator counts into a registry of its own; SetObs re-points
// it at a shared one.
type coordObs struct {
	reads, writes                     *obs.Counter
	replicaReads, replicaWrites       *obs.Counter
	readUnavailable, writeUnavailable *obs.Counter
	hedges, hedgeWins                 *obs.Counter
	hintsQueued, hintsReplayed        *obs.Counter
	readRepairs, staleReads           *obs.Counter
	readLat, writeLat                 *obs.Histogram
}

// SetObs routes coordination metrics into a registry: the coord.*
// counters Stats reads, plus per-consistency-level latency histograms
// (coord.read.<LEVEL>.sim_ms / coord.write.<LEVEL>.sim_ms) of
// successful coordinated operations in simulated milliseconds.
func (c *Coordinator) SetObs(r *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.co = coordObs{
		reads:            r.Counter("coord.reads"),
		writes:           r.Counter("coord.writes"),
		replicaReads:     r.Counter("coord.replica_reads"),
		replicaWrites:    r.Counter("coord.replica_writes"),
		readUnavailable:  r.Counter("coord.read_unavailable"),
		writeUnavailable: r.Counter("coord.write_unavailable"),
		hedges:           r.Counter("coord.hedges"),
		hedgeWins:        r.Counter("coord.hedge_wins"),
		hintsQueued:      r.Counter("coord.hints_queued"),
		hintsReplayed:    r.Counter("coord.hints_replayed"),
		readRepairs:      r.Counter("coord.read_repairs"),
		staleReads:       r.Counter("coord.stale_reads"),
		readLat:          r.Histogram("coord.read." + c.read.String() + ".sim_ms"),
		writeLat:         r.Histogram("coord.write." + c.write.String() + ".sim_ms"),
	}
}

// NewCoordinator wraps a replicated store with quorum coordination.
func NewCoordinator(repl *backend.ReplicatedStore, opts CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		repl:    repl,
		read:    opts.Read,
		write:   opts.Write,
		hedge:   opts.Hedge,
		nodes:   opts.Nodes,
		crashes: opts.Crashes,
		hints:   map[hintKey][]hint{},
	}
	c.SetObs(obs.NewRegistry())
	return c
}

// SetQueues attaches per-node FIFO service queues: every foreground
// replica operation (the gets, puts and deletes issued on behalf of
// statements, hedges included) is admitted to its node's queue and the
// wait for a free server is charged into the operation's simulated
// time on top of its service time. A node whose queue has zero
// capacity refuses operations; the coordinator treats the refusal
// exactly like a downed replica, so it degrades the consistency level
// and, when too many replicas refuse, the coordinated operation fails
// Unavailable. Hint replays (handoff, read repair) are not queued —
// they model background anti-entropy riding on an already-admitted
// contact. Pass nil to detach.
func (c *Coordinator) SetQueues(q *backend.NodeQueues) {
	c.mu.Lock()
	c.queues = q
	c.mu.Unlock()
}

// admit charges one replica operation's service time to its node's
// queue, returning the queue delay to add to the operation's time.
// Without queues attached there is no contention and the delay is
// zero. Callers hold c.mu.
func (c *Coordinator) admit(node int, service float64) float64 {
	if c.queues == nil {
		return 0
	}
	delay, err := c.queues.Admit(node, service)
	if err != nil {
		// Zero capacity is screened with refused() before the replica
		// op runs; any other admission failure cannot happen.
		return 0
	}
	return delay
}

// refused reports whether a node's queue refuses service outright
// (zero capacity). Callers hold c.mu.
func (c *Coordinator) refused(node int) bool {
	return c.queues != nil && c.queues.Capacity(node) == 0
}

// Stats returns a snapshot of the coordination counters.
func (c *Coordinator) Stats() ReplicaStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	co := c.co
	return ReplicaStats{
		Reads:            co.reads.Value(),
		Writes:           co.writes.Value(),
		ReplicaReads:     co.replicaReads.Value(),
		ReplicaWrites:    co.replicaWrites.Value(),
		ReadUnavailable:  co.readUnavailable.Value(),
		WriteUnavailable: co.writeUnavailable.Value(),
		Hedges:           co.hedges.Value(),
		HedgeWins:        co.hedgeWins.Value(),
		HintsQueued:      co.hintsQueued.Value(),
		HintsReplayed:    co.hintsReplayed.Value(),
		ReadRepairs:      co.readRepairs.Value(),
		StaleReads:       co.staleReads.Value(),
	}
}

// PendingHints returns the number of hinted writes not yet replayed.
// Production reports the hints_queued and hints_replayed counters; the
// handoff, read-repair and crash-recovery tests need the difference at
// one instant.
func (c *Coordinator) PendingHints() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, hs := range c.hints {
		n += len(hs)
	}
	return n
}

// Def implements backend.KVBackend.
func (c *Coordinator) Def(name string) (backend.ColumnFamilyDef, error) {
	return c.repl.Def(name)
}

// decide consults the node fault domains; callers hold c.mu.
func (c *Coordinator) decide(node int, cf, op string) (*faults.Error, float64) {
	if c.nodes == nil {
		return nil, 1
	}
	return c.nodes.Decide(node, cf, op)
}

// coordFault builds the coordinator-level error for an operation that
// could not reach its consistency level. The kind follows the worst
// replica failure seen: any down replica makes the whole operation
// Unavailable (retrying cannot help inside the window; plan failover
// can), while purely flaky failures stay Transient and retryable.
func coordFault(sawDown bool, cf, op string, simMillis float64) *faults.Error {
	kind := faults.Transient
	if sawDown {
		kind = faults.Unavailable
	}
	return &faults.Error{Kind: kind, CF: cf, Op: op, Node: -1, SimMillis: simMillis}
}

// Get implements backend.KVBackend with read-consistency fan-out,
// hedged reads and read repair.
func (c *Coordinator) Get(name string, req backend.GetRequest) (*backend.GetResult, error) {
	replicas := c.repl.ReplicasFor(name, req.Partition)
	need := c.read.Required(len(replicas))

	c.mu.Lock()
	defer c.mu.Unlock()
	c.co.reads.Inc()

	// Each of the `need` parallel requests occupies a slot; a failed
	// replica re-dispatches the slot to the next unused replica, the
	// slot's elapsed time accumulating across attempts.
	type contact struct {
		node   int
		res    *backend.GetResult
		millis float64
	}
	contacts := make([]contact, 0, need)
	idx := 0
	worst := 0.0
	sawDown := false
	for s := 0; s < need; s++ {
		t := 0.0
		filled := false
		for idx < len(replicas) {
			node := replicas[idx]
			idx++
			c.co.replicaReads.Inc()
			if c.refused(node) {
				// A zero-capacity node can never start the work: same
				// outcome as a downed replica, no time wasted waiting.
				sawDown = true
				continue
			}
			fe, factor := c.decide(node, name, "get")
			if fe != nil {
				t += fe.SimMillis
				if fe.Kind == faults.Unavailable {
					sawDown = true
				}
				continue
			}
			res, err := c.repl.Node(node).Get(name, req)
			if err != nil {
				return nil, err
			}
			service := res.SimMillis * factor
			t += c.admit(node, service) + service
			contacts = append(contacts, contact{node: node, res: res, millis: t})
			filled = true
			break
		}
		if t > worst {
			worst = t
		}
		if !filled {
			c.co.readUnavailable.Inc()
			return nil, coordFault(sawDown, name, "get", worst)
		}
	}

	// The coordinated latency is the slowest slot (parallel fan-out).
	slowest := 0
	for i := range contacts {
		if contacts[i].millis > contacts[slowest].millis {
			slowest = i
		}
	}
	latency := contacts[slowest].millis

	// Hedge: if the critical path is slow and a spare replica remains,
	// race it against the slow slot and keep the faster answer.
	if c.hedge.Enabled && latency > hedgeDelayMillis && idx < len(replicas) && !c.refused(replicas[idx]) {
		node := replicas[idx]
		idx++
		c.co.hedges.Inc()
		c.co.replicaReads.Inc()
		fe, factor := c.decide(node, name, "get")
		if fe == nil {
			res, err := c.repl.Node(node).Get(name, req)
			if err != nil {
				return nil, err
			}
			service := res.SimMillis * factor
			hedged := hedgeDelayMillis + c.admit(node, service) + service
			if hedged < latency {
				contacts[slowest] = contact{node: node, res: res, millis: hedged}
				c.co.hedgeWins.Inc()
				latency = 0
				for i := range contacts {
					if contacts[i].millis > latency {
						latency = contacts[i].millis
					}
				}
			}
		}
		// A failed hedge costs nothing extra: the primary path was
		// still in flight and its answer stands.
	}

	// Answer from a replica with no pending hints when one was
	// contacted; otherwise every contacted replica may predate hinted
	// writes — a stale read.
	pk := backend.EncodeKey(req.Partition)
	chosen := -1
	for i := range contacts {
		if len(c.hints[hintKey{node: contacts[i].node, cf: name, part: pk}]) == 0 {
			chosen = i
			break
		}
	}
	if chosen < 0 {
		chosen = 0
		c.co.staleReads.Inc()
	}

	// Read repair: bring every contacted stale replica up to date,
	// charging the repair writes into this read's time.
	repair := 0.0
	for i := range contacts {
		k := hintKey{node: contacts[i].node, cf: name, part: pk}
		if len(c.hints[k]) == 0 {
			continue
		}
		// Crash point: dying here loses the pending hints with the
		// process while the stale replica stays stale.
		if err := c.crashes.Point(faults.SiteReadRepair); err != nil {
			return nil, err
		}
		ms, err := c.replayLocked(k)
		if err != nil {
			return nil, err
		}
		repair += ms
		c.co.readRepairs.Inc()
	}

	c.co.readLat.Observe(latency + repair)
	return &backend.GetResult{Records: contacts[chosen].res.Records, SimMillis: latency + repair}, nil
}

// Put implements backend.KVBackend with write-consistency fan-out and
// hinted handoff.
func (c *Coordinator) Put(name string, partition, clustering []backend.Value, values []backend.Value) (*backend.PutResult, error) {
	_, pr, err := c.applyWrite(name, partition, clustering, values, false)
	return pr, err
}

// Delete implements backend.KVBackend with write-consistency fan-out
// and hinted handoff.
func (c *Coordinator) Delete(name string, partition, clustering []backend.Value) (bool, *backend.PutResult, error) {
	return c.applyWrite(name, partition, clustering, nil, true)
}

// applyWrite fans a put or delete out to every replica, waits for the
// write consistency level, and hints the replicas that missed it.
func (c *Coordinator) applyWrite(name string, partition, clustering []backend.Value, values []backend.Value, del bool) (bool, *backend.PutResult, error) {
	op := "put"
	if del {
		op = "delete"
	}
	replicas := c.repl.ReplicasFor(name, partition)
	need := c.write.Required(len(replicas))
	pk := backend.EncodeKey(partition)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.co.writes.Inc()

	ackTimes := make([]float64, 0, len(replicas))
	worstFail := 0.0
	sawDown := false
	existed := false
	for _, node := range replicas {
		c.co.replicaWrites.Inc()
		if c.refused(node) {
			// Zero service capacity: the replica misses the write, like
			// a downed node, and converges later via hinted handoff.
			sawDown = true
			k := hintKey{node: node, cf: name, part: pk}
			c.hints[k] = append(c.hints[k], hint{
				partition: partition, clustering: clustering, values: values, delete: del,
			})
			c.co.hintsQueued.Inc()
			continue
		}
		fe, factor := c.decide(node, name, op)
		if fe != nil {
			if fe.Kind == faults.Unavailable {
				sawDown = true
			}
			if fe.SimMillis > worstFail {
				worstFail = fe.SimMillis
			}
			// The replica missed this write: queue a hint so handoff
			// can converge it later. Hints are queued even when the
			// coordinated write will fail — any replica that did apply
			// the write has diverged, and convergence must win.
			k := hintKey{node: node, cf: name, part: pk}
			c.hints[k] = append(c.hints[k], hint{
				partition: partition, clustering: clustering, values: values, delete: del,
			})
			c.co.hintsQueued.Inc()
			continue
		}
		// Handoff: replay this partition's pending hints first so the
		// replica applies writes in order.
		hk := hintKey{node: node, cf: name, part: pk}
		if len(c.hints[hk]) > 0 {
			// Crash point: dying mid-handoff loses the queued hints.
			if err := c.crashes.Point(faults.SiteHandoff); err != nil {
				return false, nil, err
			}
		}
		t, err := c.replayLocked(hk)
		if err != nil {
			return false, nil, err
		}
		if del {
			ex, pr, derr := c.repl.Node(node).Delete(name, partition, clustering)
			if derr != nil {
				return false, nil, derr
			}
			existed = existed || ex
			service := pr.SimMillis * factor
			t += c.admit(node, service) + service
		} else {
			pr, perr := c.repl.Node(node).Put(name, partition, clustering, values)
			if perr != nil {
				return false, nil, perr
			}
			service := pr.SimMillis * factor
			t += c.admit(node, service) + service
		}
		ackTimes = append(ackTimes, t)
	}

	if len(ackTimes) < need {
		c.co.writeUnavailable.Inc()
		worst := worstFail
		for _, t := range ackTimes {
			if t > worst {
				worst = t
			}
		}
		return false, nil, coordFault(sawDown, name, op, worst)
	}
	// Replicas ack in parallel; the coordinator returns once `need`
	// acks are in, so latency is the need-th fastest ack.
	sort.Float64s(ackTimes)
	c.co.writeLat.Observe(ackTimes[need-1])
	return existed, &backend.PutResult{SimMillis: ackTimes[need-1]}, nil
}

// replayLocked applies one partition's pending hints to its node, in
// write order, returning the simulated time spent. Callers hold c.mu.
func (c *Coordinator) replayLocked(k hintKey) (float64, error) {
	hs := c.hints[k]
	if len(hs) == 0 {
		return 0, nil
	}
	delete(c.hints, k)
	node := c.repl.Node(k.node)
	t := 0.0
	for _, h := range hs {
		if h.delete {
			_, pr, err := node.Delete(k.cf, h.partition, h.clustering)
			if err != nil {
				return t, err
			}
			t += pr.SimMillis
		} else {
			pr, err := node.Put(k.cf, h.partition, h.clustering, h.values)
			if err != nil {
				return t, err
			}
			t += pr.SimMillis
		}
		c.co.hintsReplayed.Inc()
	}
	return t, nil
}

var _ backend.KVBackend = (*Coordinator)(nil)
