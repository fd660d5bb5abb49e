package backend

import (
	"testing"

	"nose/internal/cost"
)

// TestGetRangesAgainstFlatFamily is the regression test for a ranged
// get against a column family with zero clustering columns: it must
// return a descriptive error, not index the first value of an empty
// clustering key.
func TestGetRangesAgainstFlatFamily(t *testing.T) {
	s := NewStore(cost.DefaultParams())
	def := ColumnFamilyDef{
		Name:          "flat",
		PartitionCols: []string{"User.ID"},
		ValueCols:     []string{"User.Name"},
	}
	if err := s.Create(def); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("flat", []Value{int64(1)}, nil, []Value{"a"}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Get("flat", GetRequest{
		Partition: []Value{int64(1)},
		Ranges:    []ClusterRange{{Op: GE, Value: int64(0)}},
	})
	if err == nil {
		t.Fatal("ranged get against a flat column family should error")
	}
	// Without ranges the same get succeeds.
	res, err := s.Get("flat", GetRequest{Partition: []Value{int64(1)}})
	if err != nil || len(res.Records) != 1 {
		t.Fatalf("plain get: records=%v err=%v", res, err)
	}
}

// TestGetRangeEquivalence cross-checks each single bound against a
// brute-force filter over every record.
func TestGetRangeEquivalence(t *testing.T) {
	s := NewStore(cost.DefaultParams())
	def := ColumnFamilyDef{
		Name:           "cf",
		PartitionCols:  []string{"P"},
		ClusteringCols: []string{"C"},
		ValueCols:      []string{"V"},
	}
	if err := s.Create(def); err != nil {
		t.Fatal(err)
	}
	var all []int64
	for i := int64(0); i < 50; i++ {
		v := (i * 7) % 50
		all = append(all, v)
		if _, err := s.Put("cf", []Value{int64(1)}, []Value{v}, []Value{v}); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []RangeOp{GT, GE, LT, LE} {
		for _, bound := range []int64{-1, 0, 7, 25, 49, 60} {
			res, err := s.Get("cf", GetRequest{
				Partition: []Value{int64(1)},
				Ranges:    []ClusterRange{{Op: op, Value: bound}},
			})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, v := range all {
				switch op {
				case GT:
					if v > bound {
						want++
					}
				case GE:
					if v >= bound {
						want++
					}
				case LT:
					if v < bound {
						want++
					}
				case LE:
					if v <= bound {
						want++
					}
				}
			}
			if len(res.Records) != want {
				t.Errorf("op %v bound %d: got %d records, want %d", op, bound, len(res.Records), want)
			}
		}
	}
}
