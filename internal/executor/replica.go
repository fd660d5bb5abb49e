package executor

import (
	"fmt"
	"slices"
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

// hedgeDelayMillis is the simulated latency above which a spare replica
// is tried: a few multiples of a healthy get's service time under
// cost.DefaultParams — late enough that healthy reads never hedge,
// early enough to beat a slow-window replica.
const hedgeDelayMillis = 2.0

// stackReplicas sizes the stack arrays a coordinated operation keeps
// its replica list, contacts and acknowledgement times in, so that a
// replica walk allocates nothing at any replication factor up to it;
// a larger factor spills them to the heap.
const stackReplicas = 8

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
	// Hedge turns on hedged (speculative) reads: when the critical path
	// of a coordinated read exceeds hedgeDelayMillis — a replica stuck in
	// a slow window, typically — the coordinator dispatches the same read
	// to one spare replica and takes whichever answer lands first.
	// Hedging trades a little extra replica load for tail-latency
	// robustness; it never changes results, only timing.
	Hedge bool
	// Nodes supplies node-level fault domains; nil means a healthy
	// cluster (a nil *faults.Nodes decides every operation healthy).
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
// backend.KVBackend, so the executor and its retries work unchanged on
// top of it.
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
//     in coord.stale_reads) — exactly the weak-consistency window
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
	hedge   bool
	nodes   *faults.Nodes
	crashes *faults.Crashes

	mu     sync.Mutex
	queues *backend.NodeQueues
	hints  map[hintKey][]hint
	co     coordObs
	// scratch holds the records of every replica read but the first,
	// per read slot and for the hedge: reads reuse its arrays, and no
	// answer aliases them.
	scratch [][]backend.Record
}

// coordObs holds the coordinator's instruments — its only counters.
// They start as nil no-op handles; SetObs binds them to a registry.
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
// counters — coordinated reads and writes, per-replica attempts,
// unavailability, hedges and hedge wins, hints queued and replayed,
// read repairs, and stale reads (reads whose every contacted replica
// had hinted writes pending) — plus per-consistency-level latency
// histograms (coord.read.<LEVEL>.sim_ms / coord.write.<LEVEL>.sim_ms)
// of successful coordinated operations in simulated milliseconds. All
// of it is also charged into statement SimMillis; the counters
// attribute the latency.
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
	return &Coordinator{
		repl:    repl,
		read:    opts.Read,
		write:   opts.Write,
		hedge:   opts.Hedge,
		nodes:   opts.Nodes,
		crashes: opts.Crashes,
		hints:   map[hintKey][]hint{},
	}
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

// coordFault builds the coordinator-level error for an operation that
// could not reach its consistency level. The kind follows the worst
// replica failure seen: any down replica makes the whole operation
// Unavailable (retrying cannot help inside the window), while purely
// flaky failures stay Transient and retryable.
func coordFault(sawDown bool, cf, op string, simMillis float64) *faults.Error {
	kind := faults.Transient
	if sawDown {
		kind = faults.Unavailable
	}
	return &faults.Error{Kind: kind, CF: cf, Op: op, Node: -1, SimMillis: simMillis}
}

// Get implements backend.KVBackend with read-consistency fan-out,
// hedged reads and read repair. The caller's req.Into goes to the first
// replica read issued and to no other: each further slot and the hedge
// read into scratch the coordinator owns (c.scratch, under c.mu), so a
// second replica's answer can never overwrite the first's. When the
// first read answers, its records stay in req.Into's array; when
// another answers — a fresher replica while hints are pending, or a
// hedge that beat the first — its records are copied out of the
// scratch into the first read's slice, so the answer never aliases the
// scratch. The result is the one allocation a healthy read makes beyond
// what req.Into cannot hold.
func (c *Coordinator) Get(name string, req backend.GetRequest) (*backend.GetResult, error) {
	var rbuf [stackReplicas]int
	replicas := c.repl.ReplicasFor(rbuf[:0], name, req.Partition)
	need := c.read.Required(len(replicas))

	c.mu.Lock()
	defer c.mu.Unlock()
	c.co.reads.Inc()
	// Scratch is indexed by slot, the hedge's at need; slot 0 reads
	// into req.Into and leaves its entry unused.
	for len(c.scratch) < need+1 {
		c.scratch = append(c.scratch, nil)
	}

	// Each of the `need` parallel requests occupies a slot; a failed
	// replica re-dispatches the slot to the next unused replica, the
	// slot's elapsed time accumulating across attempts. first marks the
	// contact whose records are on req.Into's array.
	type contact struct {
		node   int
		res    backend.GetResult
		millis float64
		first  bool
	}
	var cbuf [stackReplicas]contact
	contacts := cbuf[:0]
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
			fe, factor := c.nodes.Decide(node, name, "get")
			if fe != nil {
				t += fe.SimMillis
				if fe.Kind == faults.Unavailable {
					sawDown = true
				}
				continue
			}
			ct := contact{node: node, first: s == 0}
			if err := c.readReplica(node, name, req, &ct.res, s); err != nil {
				return nil, err
			}
			service := ct.res.SimMillis * factor
			t += c.admit(node, service) + service
			ct.millis = t
			contacts = append(contacts, ct)
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
	// The first read's slice is kept apart from its contact, which a
	// hedge may replace: another replica's answer is copied into it.
	firstRecs := contacts[0].res.Records
	slowest := 0
	for i := range contacts {
		if contacts[i].millis > contacts[slowest].millis {
			slowest = i
		}
	}
	latency := contacts[slowest].millis

	// Hedge: if the critical path is slow and a spare replica remains,
	// race it against the slow slot and keep the faster answer.
	if c.hedge && latency > hedgeDelayMillis && idx < len(replicas) && !c.refused(replicas[idx]) {
		node := replicas[idx]
		idx++
		c.co.hedges.Inc()
		c.co.replicaReads.Inc()
		fe, factor := c.nodes.Decide(node, name, "get")
		if fe == nil {
			ct := contact{node: node}
			if err := c.readReplica(node, name, req, &ct.res, need); err != nil {
				return nil, err
			}
			service := ct.res.SimMillis * factor
			ct.millis = hedgeDelayMillis + c.admit(node, service) + service
			if ct.millis < latency {
				contacts[slowest] = ct
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
	// writes — a stale read. With no hint pending anywhere the first
	// contact answers, and the partition's key is never encoded.
	chosen, repair := 0, 0.0
	if len(c.hints) > 0 {
		pk := backend.EncodeKey(req.Partition)
		chosen = -1
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
	}

	// The answering replica's records are fresh and carry the
	// coordinated time back; scratch records are copied out first.
	recs := contacts[chosen].res.Records
	if !contacts[chosen].first {
		recs = append(firstRecs[:0], recs...)
	}
	c.co.readLat.Observe(latency + repair)
	return &backend.GetResult{Records: recs, SimMillis: latency + repair}, nil
}

// readReplica reads one replica into res for slot: slot 0, the first
// read issued, into the caller's req.Into; any other into the slot's
// scratch, whose grown array the coordinator keeps for its next read.
// Callers hold c.mu.
func (c *Coordinator) readReplica(node int, name string, req backend.GetRequest, res *backend.GetResult, slot int) error {
	if slot > 0 {
		req.Into = c.scratch[slot]
	}
	if err := c.repl.Node(node).Read(name, req, res); err != nil {
		return err
	}
	if slot > 0 {
		c.scratch[slot] = res.Records[:0]
	}
	return nil
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
	var rbuf [stackReplicas]int
	replicas := c.repl.ReplicasFor(rbuf[:0], name, partition)
	need := c.write.Required(len(replicas))

	c.mu.Lock()
	defer c.mu.Unlock()
	c.co.writes.Inc()

	// Hints are keyed by the encoded partition, which is built only once
	// a hint is pending somewhere or one is queued.
	pk := ""
	hintKeyOf := func(node int) hintKey {
		if pk == "" {
			pk = backend.EncodeKey(partition)
		}
		return hintKey{node: node, cf: name, part: pk}
	}
	// queueHint records that node missed this write, so handoff can
	// converge it later.
	queueHint := func(node int) {
		k := hintKeyOf(node)
		c.hints[k] = append(c.hints[k], hint{
			partition: partition, clustering: clustering, values: values, delete: del,
		})
		c.co.hintsQueued.Inc()
	}
	var abuf [stackReplicas]float64
	ackTimes := abuf[:0]
	worstFail := 0.0
	sawDown := false
	existed := false
	for _, node := range replicas {
		c.co.replicaWrites.Inc()
		if c.refused(node) {
			// Zero service capacity: the replica misses the write, like
			// a downed node, and converges later via hinted handoff.
			sawDown = true
			queueHint(node)
			continue
		}
		fe, factor := c.nodes.Decide(node, name, op)
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
			queueHint(node)
			continue
		}
		// Handoff: replay this partition's pending hints first so the
		// replica applies writes in order.
		t := 0.0
		if len(c.hints) > 0 {
			hk := hintKeyOf(node)
			if len(c.hints[hk]) > 0 {
				// Crash point: dying mid-handoff loses the queued hints.
				if err := c.crashes.Point(faults.SiteHandoff); err != nil {
					return false, nil, err
				}
			}
			var err error
			if t, err = c.replayLocked(hk); err != nil {
				return false, nil, err
			}
		}
		var ms float64
		var err error
		if del {
			var ex bool
			ex, ms, err = c.repl.Node(node).Remove(name, partition, clustering)
			existed = existed || ex
		} else {
			ms, err = c.repl.Node(node).Write(name, partition, clustering, values)
		}
		if err != nil {
			return false, nil, err
		}
		service := ms * factor
		t += c.admit(node, service) + service
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
	slices.Sort(ackTimes)
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
		var ms float64
		var err error
		if h.delete {
			_, ms, err = node.Remove(k.cf, h.partition, h.clustering)
		} else {
			ms, err = node.Write(k.cf, h.partition, h.clustering, h.values)
		}
		if err != nil {
			return t, err
		}
		t += ms
		c.co.hintsReplayed.Inc()
	}
	return t, nil
}

var _ backend.KVBackend = (*Coordinator)(nil)
