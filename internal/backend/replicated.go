package backend

import (
	"fmt"
	"hash/fnv"

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
// type. The direct Put/Delete methods here write synchronously to every
// replica and exist for bulk loading; they model an offline load with
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

// ReplicasFor returns the RF node indices holding a partition, primary
// first, in the deterministic ring order the coordinator contacts them.
func (r *ReplicatedStore) ReplicasFor(cf string, partition []Value) []int {
	h := fnv.New64a()
	h.Write([]byte(cf))
	h.Write([]byte{0})
	h.Write([]byte(EncodeKey(partition)))
	n := len(r.nodes)
	start := int(h.Sum64() % uint64(n))
	out := make([]int, r.rf)
	for i := range out {
		out[i] = (start + i) % n
	}
	return out
}

// Put writes one record synchronously to every replica of its
// partition — the bulk-load path. Runtime writes go through
// executor.Coordinator instead. The returned time is one replica's
// write cost: replicas apply in parallel and loading is not charged
// against any statement. Production reaches it only through Installer
// (Dataset.Install), never by name.
func (r *ReplicatedStore) Put(name string, partition, clustering []Value, values []Value) (*PutResult, error) {
	var last *PutResult
	for _, node := range r.ReplicasFor(name, partition) {
		pr, err := r.nodes[node].Put(name, partition, clustering, values)
		if err != nil {
			return nil, err
		}
		last = pr
	}
	return last, nil
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
