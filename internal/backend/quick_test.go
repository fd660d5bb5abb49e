package backend

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randValue draws one Value of a random kind.
func randValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return int64(r.Intn(100) - 50)
	case 1:
		return float64(r.Intn(100)) / 4
	case 2:
		return string(rune('a' + r.Intn(26)))
	default:
		return r.Intn(2) == 0
	}
}

// randKey draws a composite key whose component kinds are fixed per
// position (as real clustering keys are).
func randKey(r *rand.Rand, kinds []int) []Value {
	key := make([]Value, len(kinds))
	for i, k := range kinds {
		switch k {
		case 0:
			key[i] = int64(r.Intn(20))
		case 1:
			key[i] = float64(r.Intn(20))
		case 2:
			key[i] = string(rune('a' + r.Intn(6)))
		default:
			key[i] = r.Intn(2) == 0
		}
	}
	return key
}

// TestCompareKeysTotalOrder: CompareKeys is antisymmetric and
// transitive on random same-kind composite keys.
func TestCompareKeysTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	kinds := []int{0, 2, 1}
	for trial := 0; trial < 5000; trial++ {
		a, b, c := randKey(r, kinds), randKey(r, kinds), randKey(r, kinds)
		if CompareKeys(a, b) != -CompareKeys(b, a) {
			t.Fatalf("antisymmetry violated: %v vs %v", a, b)
		}
		if CompareKeys(a, b) <= 0 && CompareKeys(b, c) <= 0 && CompareKeys(a, c) > 0 {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
		if CompareKeys(a, a) != 0 {
			t.Fatalf("reflexivity violated: %v", a)
		}
	}
}

// TestEncodeKeyInjectiveProperty: distinct keys encode distinctly and
// equal keys encode equally, for random composite keys.
func TestEncodeKeyInjectiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	kinds := []int{2, 0}
	f := func() bool {
		a, b := randKey(r, kinds), randKey(r, kinds)
		if CompareKeys(a, b) == 0 {
			return EncodeKey(a) == EncodeKey(b)
		}
		return EncodeKey(a) != EncodeKey(b)
	}
	cfg := &quick.Config{MaxCount: 5000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
