package backend_test

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
)

func replTestDef() backend.ColumnFamilyDef {
	return backend.ColumnFamilyDef{
		Name:           "cf1",
		PartitionCols:  []string{"E.ID"},
		ClusteringCols: []string{"E.Seq"},
		ValueCols:      []string{"E.Val"},
	}
}

func TestReplicatedStoreClamps(t *testing.T) {
	s := backend.NewReplicatedStore(cost.DefaultParams(), 0, 9)
	if s.NodeCount() != 1 || s.RF() != 1 {
		t.Errorf("clamped store: %d nodes RF %d, want 1 node RF 1", s.NodeCount(), s.RF())
	}
	s = backend.NewReplicatedStore(cost.DefaultParams(), 5, 0)
	if s.RF() != 1 {
		t.Errorf("RF 0 should clamp to 1, got %d", s.RF())
	}
}

func TestPlacementDeterministicAndSpread(t *testing.T) {
	s := backend.NewReplicatedStore(cost.DefaultParams(), 5, 3)
	if err := s.Create(replTestDef()); err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for i := 0; i < 100; i++ {
		p := []backend.Value{int64(i)}
		r1 := s.ReplicasFor(nil, "cf1", p)
		r2 := s.ReplicasFor(nil, "cf1", p)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("placement for partition %d not deterministic: %v vs %v", i, r1, r2)
		}
		if len(r1) != 3 {
			t.Fatalf("partition %d placed on %d replicas, want RF=3", i, len(r1))
		}
		dup := map[int]bool{}
		for _, n := range r1 {
			if n < 0 || n >= 5 {
				t.Fatalf("partition %d placed on node %d outside the cluster", i, n)
			}
			if dup[n] {
				t.Fatalf("partition %d placed twice on node %d: %v", i, n, r1)
			}
			dup[n] = true
			seen[n]++
		}
		// Ring placement: rf consecutive successors of the primary.
		for j := 1; j < len(r1); j++ {
			if r1[j] != (r1[j-1]+1)%5 {
				t.Fatalf("partition %d replicas %v are not ring successors", i, r1)
			}
		}
	}
	// Every node should own some replicas across 100 partitions.
	for n := 0; n < 5; n++ {
		if seen[n] == 0 {
			t.Errorf("node %d received no replicas across 100 partitions", n)
		}
	}
}

func TestBulkLoadWritesEveryReplica(t *testing.T) {
	s := backend.NewReplicatedStore(cost.DefaultParams(), 5, 3)
	if err := s.Create(replTestDef()); err != nil {
		t.Fatal(err)
	}
	p := []backend.Value{int64(42)}
	if _, err := s.Write("cf1", p, []backend.Value{int64(0)}, []backend.Value{"v"}); err != nil {
		t.Fatal(err)
	}
	replicas := s.ReplicasFor(nil, "cf1", p)
	for n := 0; n < s.NodeCount(); n++ {
		r, err := s.Node(n).Get("cf1", backend.GetRequest{Partition: p})
		if err != nil {
			t.Fatal(err)
		}
		isReplica := false
		for _, rn := range replicas {
			if rn == n {
				isReplica = true
			}
		}
		if isReplica && len(r.Records) != 1 {
			t.Errorf("replica node %d holds %d records, want 1", n, len(r.Records))
		}
		if !isReplica && len(r.Records) != 0 {
			t.Errorf("non-replica node %d holds %d records, want 0", n, len(r.Records))
		}
	}
	// Aggregate stats see the row once per replica.
	st, err := s.CFStats("cf1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 {
		t.Errorf("aggregate records = %d, want 3 (one per replica)", st.Records)
	}
}

func TestCreateDropEveryNode(t *testing.T) {
	s := backend.NewReplicatedStore(cost.DefaultParams(), 3, 2)
	if err := s.Create(replTestDef()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Def("cf1"); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if _, err := s.Node(n).Def("cf1"); err != nil {
			t.Errorf("node %d missing cf1 after Create: %v", n, err)
		}
	}
	s.Drop("cf1")
	for n := 0; n < 3; n++ {
		if _, err := s.Node(n).Def("cf1"); err == nil {
			t.Errorf("node %d still has cf1 after Drop", n)
		}
	}
}

// TestReplicasForMatchesFNV: placement hashes in place, without
// hash/fnv, and must stay bit-identical to FNV-1a over the family name,
// a zero byte and the partition's EncodeKey bytes — on 1,000 seeded keys
// of every value kind, and of two-column keys mixing them.
func TestReplicasForMatchesFNV(t *testing.T) {
	s := backend.NewReplicatedStore(cost.DefaultParams(), 7, 3)
	rng := rand.New(rand.NewSource(42))
	kinds := []func() backend.Value{
		func() backend.Value { return rng.Int63() - rng.Int63() },
		func() backend.Value { return rng.NormFloat64() * 1e6 },
		func() backend.Value { return strings.Repeat("k", rng.Intn(80)) + strconv.Itoa(rng.Int()) },
		func() backend.Value { return rng.Intn(2) == 0 },
	}
	for i := 0; i < 1000; i++ {
		cf := "cf" + strconv.Itoa(rng.Intn(50))
		for k, kind := range kinds {
			for _, part := range [][]backend.Value{{kind()}, {kind(), kinds[(k+i)%len(kinds)]()}} {
				h := fnv.New64a()
				h.Write([]byte(cf))
				h.Write([]byte{0})
				h.Write([]byte(backend.EncodeKey(part)))
				start := int(h.Sum64() % 7)
				want := []int{start, (start + 1) % 7, (start + 2) % 7}
				if got := s.ReplicasFor(nil, cf, part); !reflect.DeepEqual(got, want) {
					t.Fatalf("ReplicasFor(%q, %v) = %v, hash/fnv places it on %v", cf, part, got, want)
				}
			}
		}
	}
	// Appending: the caller's slice is extended, not replaced.
	if got := s.ReplicasFor([]int{-1}, "cf1", []backend.Value{int64(1)}); len(got) != 4 || got[0] != -1 {
		t.Errorf("ReplicasFor appended to [-1]: %v", got)
	}
}
