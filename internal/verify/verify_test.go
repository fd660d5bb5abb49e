package verify_test

import (
	"strings"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/verify"
)

func v(s string) backend.Value { return s }

func newStore(t *testing.T, names ...string) *backend.Store {
	t.Helper()
	s := backend.NewStore(cost.DefaultParams())
	for _, name := range names {
		if err := s.Create(backend.ColumnFamilyDef{
			Name:           name,
			PartitionCols:  []string{"pk"},
			ClusteringCols: []string{"ck"},
			ValueCols:      []string{"val"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestI1AckedWrites: acknowledged puts and deletes must be reflected by
// the store; failed operations below the tap are not owed.
func TestI1AckedWrites(t *testing.T) {
	store := newStore(t, "cf")
	vr := verify.New()
	tap := verify.NewTap(store, vr)

	if _, err := tap.Put("cf", []backend.Value{v("p1")}, []backend.Value{v("c1")}, []backend.Value{v("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tap.Put("cf", []backend.Value{v("p1")}, []backend.Value{v("c1")}, []backend.Value{v("y")}); err != nil {
		t.Fatal(err)
	}
	// A put to a missing family fails below the tap and is not recorded.
	if _, err := tap.Put("nope", []backend.Value{v("p")}, nil, nil); err == nil {
		t.Fatal("put to missing family succeeded")
	}

	rep, err := vr.Check(verify.StoreReader{Store: store}, map[string]bool{"cf": true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.AckedRows != 1 {
		t.Fatalf("clean check: %s", rep.Format())
	}

	// Clobber the row behind the tap's back: the last acked value is lost.
	if _, err := store.Put("cf", []backend.Value{v("p1")}, []backend.Value{v("c1")}, []backend.Value{v("stale")}); err != nil {
		t.Fatal(err)
	}
	rep, err = vr.Check(verify.StoreReader{Store: store}, map[string]bool{"cf": true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(rep.Violations[0], "I1 acknowledged write lost") {
		t.Fatalf("lost write not flagged: %s", rep.Format())
	}

	// An acknowledged delete must stick.
	if _, _, err := tap.Delete("cf", []backend.Value{v("p1")}, []backend.Value{v("c1")}); err != nil {
		t.Fatal(err)
	}
	rep, _ = vr.Check(verify.StoreReader{Store: store}, map[string]bool{"cf": true})
	if !rep.OK() {
		t.Fatalf("after delete: %s", rep.Format())
	}
	if _, err := store.Put("cf", []backend.Value{v("p1")}, []backend.Value{v("c1")}, []backend.Value{v("zombie")}); err != nil {
		t.Fatal(err)
	}
	rep, _ = vr.Check(verify.StoreReader{Store: store}, map[string]bool{"cf": true})
	if rep.OK() || !strings.Contains(rep.Violations[0], "I1 acknowledged delete lost") {
		t.Fatalf("zombie row not flagged: %s", rep.Format())
	}
}

// TestDropExemption: NoteDropped forgives writes acknowledged before the
// drop, but a re-created family's later writes are owed again.
func TestDropExemption(t *testing.T) {
	store := newStore(t, "cf")
	vr := verify.New()
	tap := verify.NewTap(store, vr)

	if _, err := tap.Put("cf", []backend.Value{v("p")}, []backend.Value{v("c")}, []backend.Value{v("old")}); err != nil {
		t.Fatal(err)
	}
	store.Drop("cf")
	vr.NoteDropped("cf")
	rep, err := vr.Check(verify.StoreReader{Store: store}, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Exempt != 1 {
		t.Fatalf("dropped family not exempt: %s", rep.Format())
	}

	// Re-create and write again: the new write is owed.
	store2 := newStore(t, "cf")
	tap2 := verify.NewTap(store2, vr)
	if _, err := tap2.Put("cf", []backend.Value{v("p")}, []backend.Value{v("c")}, []backend.Value{v("new")}); err != nil {
		t.Fatal(err)
	}
	store2.Drop("cf")
	rep, _ = vr.Check(verify.StoreReader{Store: newStore(t)}, map[string]bool{})
	if rep.OK() {
		t.Fatalf("post-recreate write forgiven: %s", rep.Format())
	}
}

// TestI2CutoverSnapshot: snapshot rows must exist unless deleted after
// cutover or their family was dropped later.
func TestI2CutoverSnapshot(t *testing.T) {
	store := newStore(t, "cf")
	vr := verify.New()
	tap := verify.NewTap(store, vr)
	rows := []verify.Row{
		{CF: "cf", Partition: []backend.Value{v("p1")}, Clustering: []backend.Value{v("c1")}},
		{CF: "cf", Partition: []backend.Value{v("p2")}, Clustering: []backend.Value{v("c2")}},
	}
	for _, r := range rows {
		if _, err := tap.Put(r.CF, r.Partition, r.Clustering, []backend.Value{v("x")}); err != nil {
			t.Fatal(err)
		}
	}
	vr.NoteCutover(rows)
	rep, err := vr.Check(verify.StoreReader{Store: store}, map[string]bool{"cf": true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.SnapshotRows != 2 {
		t.Fatalf("clean cutover: %s", rep.Format())
	}

	// Acknowledged post-cutover delete makes absence legal.
	if _, _, err := tap.Delete("cf", rows[0].Partition, rows[0].Clustering); err != nil {
		t.Fatal(err)
	}
	rep, _ = vr.Check(verify.StoreReader{Store: store}, map[string]bool{"cf": true})
	if !rep.OK() || rep.SnapshotRows != 1 {
		t.Fatalf("post-cutover delete: %s", rep.Format())
	}

	// Losing a snapshot row behind the tap is a violation.
	if _, _, err := store.Delete("cf", rows[1].Partition, rows[1].Clustering); err != nil {
		t.Fatal(err)
	}
	rep, _ = vr.Check(verify.StoreReader{Store: store}, map[string]bool{"cf": true})
	hasI1, hasI2 := false, false
	for _, viol := range rep.Violations {
		hasI1 = hasI1 || strings.Contains(viol, "I1")
		hasI2 = hasI2 || strings.Contains(viol, "I2")
	}
	if !hasI1 || !hasI2 {
		t.Fatalf("lost snapshot row: %s", rep.Format())
	}
}

// TestI3Families: orphan and missing families are both flagged, sorted.
func TestI3Families(t *testing.T) {
	store := newStore(t, "orphan_b", "orphan_a", "kept")
	vr := verify.New()
	rep, err := vr.Check(verify.StoreReader{Store: store}, map[string]bool{"kept": true, "missing": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 3 {
		t.Fatalf("violations: %s", rep.Format())
	}
	for i := 1; i < len(rep.Violations); i++ {
		if rep.Violations[i-1] > rep.Violations[i] {
			t.Fatalf("violations not sorted: %s", rep.Format())
		}
	}
}

// TestReplicatedReader: a write on at least one replica satisfies I1; a
// zombie row on only some replicas does not fail an acknowledged delete.
func TestReplicatedReader(t *testing.T) {
	repl := backend.NewReplicatedStore(cost.DefaultParams(), 3, 2)
	def := backend.ColumnFamilyDef{
		Name:           "cf",
		PartitionCols:  []string{"pk"},
		ClusteringCols: []string{"ck"},
		ValueCols:      []string{"val"},
	}
	if err := repl.Create(def); err != nil {
		t.Fatal(err)
	}
	vr := verify.New()
	coord := executor.NewCoordinator(repl, executor.CoordinatorOptions{
		Read: executor.Quorum, Write: executor.Quorum,
	})
	tap := verify.NewTap(coord, vr)
	part, clus := []backend.Value{v("p")}, []backend.Value{v("c")}
	if _, err := tap.Put("cf", part, clus, []backend.Value{v("x")}); err != nil {
		t.Fatal(err)
	}

	reader := verify.ReplicatedReader{Repl: repl}
	rep, err := vr.Check(reader, map[string]bool{"cf": true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("replicated clean: %s", rep.Format())
	}

	// Wipe the row from one replica: still on the other, so I1 holds.
	replicas := repl.ReplicasFor(nil, "cf", part)
	if len(replicas) != 2 {
		t.Fatalf("replicas = %v", replicas)
	}
	if _, _, err := repl.Node(replicas[0]).Delete("cf", part, clus); err != nil {
		t.Fatal(err)
	}
	rep, _ = vr.Check(reader, map[string]bool{"cf": true})
	if !rep.OK() {
		t.Fatalf("one surviving replica: %s", rep.Format())
	}

	// Wipe the last copy: the acknowledged write is lost.
	if _, _, err := repl.Node(replicas[1]).Delete("cf", part, clus); err != nil {
		t.Fatal(err)
	}
	rep, _ = vr.Check(reader, map[string]bool{"cf": true})
	if rep.OK() {
		t.Fatalf("lost on all replicas: %s", rep.Format())
	}

	// An acknowledged delete leaving a stale copy on ONE replica is
	// tolerated (hinted handoff repairs it); on ALL replicas it is lost.
	if _, err := tap.Put("cf", part, clus, []backend.Value{v("y")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tap.Delete("cf", part, clus); err != nil {
		t.Fatal(err)
	}
	if _, err := repl.Node(replicas[0]).Put("cf", part, clus, []backend.Value{v("zombie")}); err != nil {
		t.Fatal(err)
	}
	rep, _ = vr.Check(reader, map[string]bool{"cf": true})
	if !rep.OK() {
		t.Fatalf("partial zombie after delete: %s", rep.Format())
	}
}

// TestFormatDeterministic: identical state renders identical bytes.
func TestFormatDeterministic(t *testing.T) {
	build := func() string {
		store := newStore(t, "b", "a")
		vr := verify.New()
		tap := verify.NewTap(store, vr)
		for _, p := range []string{"p2", "p1", "p3"} {
			if _, err := tap.Put("a", []backend.Value{v(p)}, []backend.Value{v("c")}, []backend.Value{v("x")}); err != nil {
				t.Fatal(err)
			}
		}
		store.Drop("a")
		rep, err := vr.Check(verify.StoreReader{Store: store}, map[string]bool{"c": true})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Format()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("Format not deterministic:\n%s\nvs\n%s", a, b)
	}
}
