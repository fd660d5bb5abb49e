package backend

import (
	"fmt"

	"nose/internal/cost"
	"nose/internal/obs"
)

// ReplicatedStore places each column family's partitions on N simulated
// nodes with a replication factor, modeling the Cassandra-style cluster
// the paper targets (§II, §VII) instead of a single store. Placement is
// a deterministic token ring: the partition key hashes to a primary
// node and the replicas are the ring successors, so the same key always
// lands on the same replica set and every run is reproducible.
//
// The ReplicatedStore itself is only the storage layer — node-local
// column families plus placement. Runtime semantics (consistency
// levels, quorums, hedged reads, hinted handoff, read repair) live in
// executor.Coordinator, which drives the per-node stores through this
// type. The direct Write method here writes synchronously to every
// replica and exists for bulk loading; it models an offline load with
// no weather, not a coordinated write.
type ReplicatedStore struct {
	nodes []*Store
	rf    int
}

// NewReplicatedStore creates a cluster of n empty node stores with
// replication factor rf (clamped to [1, n]; n is clamped to at least
// 1). All nodes charge service time with the same coefficients.
func NewReplicatedStore(lat cost.Params, n, rf int) *ReplicatedStore {
	if n < 1 {
		n = 1
	}
	if rf < 1 {
		rf = 1
	}
	if rf > n {
		rf = n
	}
	nodes := make([]*Store, n)
	for i := range nodes {
		nodes[i] = NewStore(lat)
	}
	return &ReplicatedStore{nodes: nodes, rf: rf}
}

// NodeCount returns the number of nodes in the cluster.
func (r *ReplicatedStore) NodeCount() int { return len(r.nodes) }

// RF returns the replication factor. No production caller asks — the
// coordinator reads ReplicasFor — but the clamping tests here and in
// harness assert the factor a configuration actually got.
func (r *ReplicatedStore) RF() int { return r.rf }

// Node returns one node's store for replica-level access.
func (r *ReplicatedStore) Node(i int) *Store { return r.nodes[i] }

// SetObs routes every node store's operation counters into one
// registry. Per-node counts sum into the shared store.* counters, so
// the totals count replica-level operations across the cluster.
func (r *ReplicatedStore) SetObs(reg *obs.Registry) {
	for _, n := range r.nodes {
		n.SetObs(reg)
	}
}

// Create defines a column family on every node. Only the nodes a
// partition is placed on ever hold its records.
func (r *ReplicatedStore) Create(def ColumnFamilyDef) error {
	for i, n := range r.nodes {
		if err := n.Create(def); err != nil {
			return fmt.Errorf("backend: node %d: %w", i, err)
		}
	}
	return nil
}

// Drop removes a column family from every node.
func (r *ReplicatedStore) Drop(name string) {
	for _, n := range r.nodes {
		n.Drop(name)
	}
}

// Def returns a column family's definition (identical on every node).
func (r *ReplicatedStore) Def(name string) (ColumnFamilyDef, error) {
	return r.nodes[0].Def(name)
}

// Names lists the installed column family names (identical on every
// node since Create and Drop fan out to all of them).
func (r *ReplicatedStore) Names() []string {
	return r.nodes[0].Names()
}

// FNV-1a's 64-bit parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ReplicasFor appends to dst the RF node indices holding a partition,
// primary first, in the deterministic ring order the coordinator
// contacts them. The primary is FNV-1a of the family name, a zero byte
// and the partition's EncodeKey bytes, hashed in place over a stack
// buffer so that placing a key allocates nothing beyond dst's growth.
func (r *ReplicatedStore) ReplicasFor(dst []int, cf string, partition []Value) []int {
	var buf [keyBufSize]byte
	h := uint64(fnvOffset64)
	for i := 0; i < len(cf); i++ {
		h = (h ^ uint64(cf[i])) * fnvPrime64
	}
	h *= fnvPrime64 // the zero byte: h ^ 0 is h
	for _, b := range AppendKey(buf[:0], partition) {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	n := len(r.nodes)
	start := int(h % uint64(n))
	for i := 0; i < r.rf; i++ {
		dst = append(dst, (start+i)%n)
	}
	return dst
}

// Write writes one record synchronously to every replica of its
// partition — the bulk-load path. Runtime writes go through
// executor.Coordinator instead. The returned time is one replica's
// write cost: replicas apply in parallel and loading is not charged
// against any statement. The replicas are placed in a stack buffer (a
// factor above its eight spills to the heap), so a write allocates
// only what the node stores keep.
func (r *ReplicatedStore) Write(name string, partition, clustering []Value, values []Value) (float64, error) {
	var rbuf [8]int
	ms := 0.0
	for _, node := range r.ReplicasFor(rbuf[:0], name, partition) {
		var err error
		if ms, err = r.nodes[node].Write(name, partition, clustering, values); err != nil {
			return 0, err
		}
	}
	return ms, nil
}

// CFStats aggregates a column family's contents across nodes. Each
// record is counted once per replica holding it, so a fully replicated
// family reports RF times its logical record count. Nothing in
// production reads family statistics; the bulk-load, backfill and
// crash-recovery tests count records with it.
func (r *ReplicatedStore) CFStats(name string) (Stats, error) {
	total := Stats{}
	for _, n := range r.nodes {
		st, err := n.CFStats(name)
		if err != nil {
			return Stats{}, err
		}
		total.Partitions += st.Partitions
		total.Records += st.Records
	}
	return total, nil
}
