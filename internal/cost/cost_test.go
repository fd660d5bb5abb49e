package cost_test

import (
	"testing"
	"testing/quick"

	"nose/internal/cost"
)

func TestLookupCostShape(t *testing.T) {
	m := cost.Default()
	if got := m.Lookup(0, 0, 0); got != 0 {
		t.Errorf("zero requests cost %v", got)
	}
	one := m.Lookup(1, 1, 1)
	if one <= 0 {
		t.Fatalf("unit lookup cost %v", one)
	}
	// Requests dominate rows: fetching 100 rows in one request is far
	// cheaper than 100 requests of one row each.
	bulk := m.Lookup(1, 1, 100)
	scatter := m.Lookup(100, 100, 100)
	if bulk >= scatter {
		t.Errorf("bulk %v should cost less than scatter %v", bulk, scatter)
	}
	// Partition count is floored at the request count.
	if m.Lookup(10, 1, 0) != m.Lookup(10, 10, 0) {
		t.Error("partitions below requests should be floored")
	}
}

func TestLookupMonotonicity(t *testing.T) {
	m := cost.Default()
	f := func(reqs, parts, rows uint16, dReqs, dParts, dRows uint8) bool {
		r, p, w := float64(reqs)+1, float64(parts)+1, float64(rows)
		base := m.Lookup(r, p, w)
		grown := m.Lookup(r+float64(dReqs), p+float64(dParts), w+float64(dRows))
		return grown >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertDeleteCosts(t *testing.T) {
	m := cost.Default()
	if m.Insert(0, 0) != 0 || m.Delete(0) != 0 {
		t.Error("zero-request writes should be free")
	}
	if m.Insert(1, 10) <= m.Insert(1, 1) {
		t.Error("more cells should cost more")
	}
	if m.Delete(5) != 5*cost.DefaultParams().DeleteRequestCost {
		t.Error("delete cost not linear in requests")
	}
}

func TestClientSideCosts(t *testing.T) {
	m := cost.Default()
	if m.Filter(0) != 0 || m.Sort(0) != 0 || m.Sort(1) != 0 {
		t.Error("trivial client-side work should be free")
	}
	if m.Filter(1000) >= m.Lookup(1, 1, 1000) {
		t.Error("filtering should be cheaper than fetching")
	}
	if m.Sort(10_000) <= m.Sort(100) {
		t.Error("sort cost should grow")
	}
}

func TestCustomParams(t *testing.T) {
	p := cost.Params{RequestCost: 1, PartitionCost: 0, RowCost: 0}
	m := cost.NewLinear(p)
	if got := m.Lookup(3, 3, 50); got != 3 {
		t.Errorf("Lookup = %v, want 3", got)
	}
}
