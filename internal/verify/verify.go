// Package verify is the crash-recovery test oracle: a write tap plus an
// invariant checker that decides, after any run — crashed, recovered,
// or clean — whether the system lost data. It checks three invariants:
//
//	I1 no acknowledged write lost: the last successful (acknowledged)
//	   put or delete of every row is still reflected by the store,
//	   unless its column family was legitimately dropped afterwards
//	   (migration drop phase, abort rollback, recovery GC).
//	I2 cutover agreement: every backfill-snapshot row of a migration
//	   that reached cutover exists in the store, unless an acknowledged
//	   delete removed it — the old and new families agree on the data
//	   the migration moved.
//	I3 no orphan families: the store contains exactly the serving
//	   schema's families plus those of an in-flight migration — crashes
//	   neither strand half-built families nor lose serving ones.
//
// The Verifier lives outside the system under test and survives
// simulated crashes: the same Verifier is attached to every incarnation
// of a system, so writes acknowledged before a crash are still owed
// after recovery. Reports are deterministic (sorted, fixed format) so
// CI can compare them byte for byte across runs and worker counts.
//
// On a replicated store, "acknowledged" is coordinator-level (the write
// reached its consistency level) and I1 requires the value on at least
// one replica of the row's partition: replicas may legitimately diverge
// while hints are pending, but an acknowledged write must survive
// somewhere durable. Last-write-wins is by acknowledgement order at the
// tap, not timestamps — a resumed backfill re-putting a snapshot row
// over a newer dual write is itself an acknowledged write and counts as
// the latest value.
package verify

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"nose/internal/backend"
)

// Row names one record by primary key — the unit the invariants check.
type Row struct {
	// CF is the column family name.
	CF string
	// Partition and Clustering form the primary key.
	Partition, Clustering []backend.Value
}

// rowKey addresses a row in the tap's ledger.
type rowKey struct {
	cf, pk, ck string
}

// entry is the last acknowledged operation on a row.
type entry struct {
	seq        int64
	delete     bool
	partition  []backend.Value
	clustering []backend.Value
	values     []backend.Value
}

// Verifier accumulates acknowledged writes, legitimate drops, and
// cutover snapshots, and checks the invariants on demand. All methods
// are safe for concurrent use.
type Verifier struct {
	mu      sync.Mutex
	seq     int64
	last    map[rowKey]entry
	dropSeq map[string]int64
	snaps   []snap
}

// snap is one cutover's backfill snapshot.
type snap struct {
	rows []Row
	seq  int64
}

// New returns an empty verifier.
func New() *Verifier {
	return &Verifier{last: map[rowKey]entry{}, dropSeq: map[string]int64{}}
}

// NoteDropped records that a column family was dropped legitimately —
// migration drop phase, abort rollback, or recovery garbage collection.
// Acknowledged writes to the family before this point are no longer
// owed; writes acknowledged after (the family was re-created) are.
func (v *Verifier) NoteDropped(cf string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	v.dropSeq[cf] = v.seq
}

// NoteCutover records a migration's backfill snapshot at the moment its
// plan cutover happened: Check will require every row to be present
// unless an acknowledged delete removed it.
func (v *Verifier) NoteCutover(rows []Row) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	v.snaps = append(v.snaps, snap{rows: rows, seq: v.seq})
}

// AckPut writes one record through put and, when the write succeeds,
// records it as the row's latest acknowledged value. The write and the
// record happen under the verifier's lock, so two writers of one row —
// a client's dual write and a migration's copy — are recorded in the
// order their writes reached the store; noted separately, the later
// record could name the overwritten value and read as a lost write. The
// Tap routes every put here; a copy that bypasses the tap (a bulk load)
// calls it directly. A nil verifier just performs the write. R is what
// the write returns: a KVBackend put's *backend.PutResult, or an
// Installer write's service time.
func AckPut[R any](v *Verifier, put func(cf string, partition, clustering, values []backend.Value) (R, error),
	cf string, partition, clustering, values []backend.Value) (R, error) {
	if v == nil {
		return put(cf, partition, clustering, values)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	pr, err := put(cf, partition, clustering, values)
	if err == nil {
		v.ackLocked(cf, partition, clustering, entry{values: append([]backend.Value(nil), values...)})
	}
	return pr, err
}

// ackDelete is AckPut for a delete.
func (v *Verifier) ackDelete(del func(cf string, partition, clustering []backend.Value) (bool, *backend.PutResult, error),
	cf string, partition, clustering []backend.Value) (bool, *backend.PutResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	existed, pr, err := del(cf, partition, clustering)
	if err == nil {
		v.ackLocked(cf, partition, clustering, entry{delete: true})
	}
	return existed, pr, err
}

// ackLocked records e as the row's latest acknowledged operation.
func (v *Verifier) ackLocked(cf string, partition, clustering []backend.Value, e entry) {
	v.seq++
	e.seq = v.seq
	e.partition = append([]backend.Value(nil), partition...)
	e.clustering = append([]backend.Value(nil), clustering...)
	v.last[rowKey{cf, backend.EncodeKey(partition), backend.EncodeKey(clustering)}] = e
}

// Tap is a backend.KVBackend middleware that records every operation
// the layer below acknowledged. Install it directly above the store (or
// the replica coordinator), below fault injectors and retries, so it
// sees exactly the operations that durably succeeded.
type Tap struct {
	inner backend.KVBackend
	v     *Verifier
}

// NewTap wraps a backend with acknowledgement recording.
func NewTap(inner backend.KVBackend, v *Verifier) *Tap {
	return &Tap{inner: inner, v: v}
}

// Def implements backend.KVBackend.
func (t *Tap) Def(name string) (backend.ColumnFamilyDef, error) { return t.inner.Def(name) }

// Get implements backend.KVBackend.
func (t *Tap) Get(name string, req backend.GetRequest) (*backend.GetResult, error) {
	return t.inner.Get(name, req)
}

// Put implements backend.KVBackend, recording acknowledged puts.
func (t *Tap) Put(name string, partition, clustering []backend.Value, values []backend.Value) (*backend.PutResult, error) {
	return AckPut(t.v, t.inner.Put, name, partition, clustering, values)
}

// Delete implements backend.KVBackend, recording acknowledged deletes.
func (t *Tap) Delete(name string, partition, clustering []backend.Value) (bool, *backend.PutResult, error) {
	return t.v.ackDelete(t.inner.Delete, name, partition, clustering)
}

var _ backend.KVBackend = (*Tap)(nil)

// Reader is the verifier's view of a store at check time: which
// families exist, and what each replica holds for a row.
type Reader interface {
	// Families lists the installed column family names.
	Families() []string
	// Lookup returns the values every replica of the row's partition
	// holds for the row (absent replicas contribute nothing) and the
	// replica count. A single store has one replica.
	Lookup(cf string, partition, clustering []backend.Value) (hits [][]backend.Value, replicas int, err error)
}

// StoreReader adapts a single store.
type StoreReader struct {
	// Store is the store under check.
	Store *backend.Store
}

// Families implements Reader.
func (r StoreReader) Families() []string { return r.Store.Names() }

// Lookup implements Reader.
func (r StoreReader) Lookup(cf string, partition, clustering []backend.Value) ([][]backend.Value, int, error) {
	vals, found, err := lookupNode(r.Store, cf, partition, clustering)
	if err != nil || !found {
		return nil, 1, err
	}
	return [][]backend.Value{vals}, 1, nil
}

// ReplicatedReader adapts a replicated store, reading each replica of
// the row's partition directly (no coordinator, no consistency level —
// this is the omniscient post-mortem view).
type ReplicatedReader struct {
	// Repl is the cluster under check.
	Repl *backend.ReplicatedStore
}

// Families implements Reader.
func (r ReplicatedReader) Families() []string { return r.Repl.Names() }

// Lookup implements Reader.
func (r ReplicatedReader) Lookup(cf string, partition, clustering []backend.Value) ([][]backend.Value, int, error) {
	replicas := r.Repl.ReplicasFor(nil, cf, partition)
	var hits [][]backend.Value
	for _, node := range replicas {
		vals, found, err := lookupNode(r.Repl.Node(node), cf, partition, clustering)
		if err != nil {
			return nil, len(replicas), err
		}
		if found {
			hits = append(hits, vals)
		}
	}
	return hits, len(replicas), nil
}

// lookupNode reads one row from one store; a missing column family is
// an absent row, not an error.
func lookupNode(s *backend.Store, cf string, partition, clustering []backend.Value) ([]backend.Value, bool, error) {
	if _, err := s.Def(cf); err != nil {
		return nil, false, nil
	}
	res, err := s.Get(cf, backend.GetRequest{Partition: partition})
	if err != nil {
		return nil, false, err
	}
	ck := backend.EncodeKey(clustering)
	for _, rec := range res.Records {
		if backend.EncodeKey(rec.Clustering) == ck {
			return rec.Values, true, nil
		}
	}
	return nil, false, nil
}

// Report is one invariant check's deterministic outcome.
type Report struct {
	// Families is the number of installed families checked (I3).
	Families int
	// AckedRows is the number of rows with acknowledged writes checked
	// against the store (I1); Exempt counts rows skipped because their
	// family was legitimately dropped after the write.
	AckedRows, Exempt int
	// SnapshotRows is the number of cutover-snapshot rows checked (I2).
	SnapshotRows int
	// Violations lists every invariant breach, sorted; empty means the
	// run was crash-consistent.
	Violations []string
}

// OK reports a clean check.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Format renders the report deterministically — same state, same bytes
// — so CI can diff reports across seeds and worker counts.
func (r *Report) Format() string {
	var b strings.Builder
	status := "OK"
	if !r.OK() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	fmt.Fprintf(&b, "verify: families=%d acked=%d exempt=%d snapshot=%d — %s\n",
		r.Families, r.AckedRows, r.Exempt, r.SnapshotRows, status)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	return b.String()
}

// Check runs the three invariants against a store view. expected names
// the families that should exist: the serving schema's plus any an
// in-flight migration is building.
func (v *Verifier) Check(r Reader, expected map[string]bool) (*Report, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	rep := &Report{}

	// I3: orphan and missing families.
	families := append([]string(nil), r.Families()...)
	sort.Strings(families)
	rep.Families = len(families)
	have := map[string]bool{}
	for _, name := range families {
		have[name] = true
		if !expected[name] {
			rep.Violations = append(rep.Violations, fmt.Sprintf("I3 orphan family %q left in store", name))
		}
	}
	expNames := make([]string, 0, len(expected))
	for name := range expected {
		expNames = append(expNames, name)
	}
	sort.Strings(expNames)
	for _, name := range expNames {
		if !have[name] {
			rep.Violations = append(rep.Violations, fmt.Sprintf("I3 expected family %q missing from store", name))
		}
	}

	// I1: last acknowledged operation per row.
	keys := make([]rowKey, 0, len(v.last))
	for k := range v.last {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.cf != b.cf {
			return a.cf < b.cf
		}
		if a.pk != b.pk {
			return a.pk < b.pk
		}
		return a.ck < b.ck
	})
	for _, k := range keys {
		e := v.last[k]
		if e.seq <= v.dropSeq[k.cf] {
			rep.Exempt++
			continue
		}
		rep.AckedRows++
		hits, replicas, err := r.Lookup(k.cf, e.partition, e.clustering)
		if err != nil {
			return nil, fmt.Errorf("verify: lookup %s %s/%s: %w", k.cf, k.pk, k.ck, err)
		}
		if e.delete {
			// The tombstone must have landed somewhere: a row still on
			// every replica was never deleted durably.
			if replicas > 0 && len(hits) == replicas {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("I1 acknowledged delete lost: %s %s/%s still on all %d replicas", k.cf, k.pk, k.ck, replicas))
			}
			continue
		}
		if !anyHitEquals(hits, e.values) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("I1 acknowledged write lost: %s %s/%s on %d/%d replicas with the acknowledged value",
					k.cf, k.pk, k.ck, 0, replicas))
		}
	}

	// I2: cutover snapshots.
	for _, sn := range v.snaps {
		for _, row := range sn.rows {
			k := rowKey{row.CF, backend.EncodeKey(row.Partition), backend.EncodeKey(row.Clustering)}
			if e, ok := v.last[k]; ok && e.delete {
				// The row's last acknowledged operation is a tombstone —
				// absence is correct whether the delete landed before
				// cutover (dual-write delete after backfill copied the
				// row) or after it; I1 polices the tombstone itself.
				continue
			}
			if v.dropSeq[row.CF] >= sn.seq {
				continue // family legitimately dropped after this cutover
			}
			rep.SnapshotRows++
			hits, _, err := r.Lookup(row.CF, row.Partition, row.Clustering)
			if err != nil {
				return nil, fmt.Errorf("verify: snapshot lookup %s %s/%s: %w", row.CF, k.pk, k.ck, err)
			}
			if len(hits) == 0 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("I2 cutover snapshot row missing: %s %s/%s", row.CF, k.pk, k.ck))
			}
		}
	}

	sort.Strings(rep.Violations)
	return rep, nil
}

// anyHitEquals reports whether any replica holds exactly the
// acknowledged values.
func anyHitEquals(hits [][]backend.Value, want []backend.Value) bool {
	for _, h := range hits {
		if len(h) != len(want) {
			continue
		}
		same := true
		for i := range h {
			if backend.CompareValues(h[i], want[i]) != 0 {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
