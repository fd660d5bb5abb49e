package backend

import "testing"

func k(vs ...Value) []Value { return vs }

func TestValueComparisons(t *testing.T) {
	if CompareValues(int64(1), float64(1.5)) >= 0 {
		t.Error("cross-numeric comparison wrong")
	}
	if CompareValues(float64(2), int64(1)) <= 0 {
		t.Error("cross-numeric comparison wrong")
	}
	if CompareValues("a", "b") >= 0 || CompareValues(true, false) <= 0 {
		t.Error("string/bool comparison wrong")
	}
	if CompareKeys(k(int64(1)), k(int64(1), "x")) >= 0 {
		t.Error("prefix key should sort first")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on incomparable values")
		}
	}()
	CompareValues("a", int64(1))
}

func TestEncodeKeyInjective(t *testing.T) {
	keys := [][]Value{
		k(int64(1)), k(int64(2)), k(float64(1)), k("1"), k(true), k(false),
		k("ab", "c"), k("a", "bc"), k(int64(1), int64(2)), k(int64(1), "2"),
	}
	seen := map[string][]Value{}
	for _, key := range keys {
		enc := EncodeKey(key)
		if other, dup := seen[enc]; dup {
			t.Errorf("collision: %v and %v", key, other)
		}
		seen[enc] = key
	}
}
