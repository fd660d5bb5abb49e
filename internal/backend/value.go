// Package backend implements a simulated extensible record store with
// the Cassandra-style column family model the paper targets (§III-C):
// column families map a composite partition key to clustering-ordered
// records of cells, accessed only through get, put and delete. Each
// partition's records live in one slice sorted by clustering key, found
// by binary search, and operations do real work; in
// addition, every operation is charged a deterministic service time
// from the same coefficients as the advisor's cost model, so measured
// "response times" compare schemas the way the paper's Cassandra
// testbed did without hardware noise.
package backend

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Value is one cell or key component: int64, float64, string or bool.
// Using a small closed set of dynamic types mirrors the record store's
// untyped cells while keeping comparisons well-defined.
type Value = any

// CompareValues orders two values of the same kind; numeric kinds
// compare across int64/float64. It panics on incomparable kinds, which
// indicates a schema/loader bug rather than a runtime condition.
func CompareValues(a, b Value) int {
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			default:
				return 0
			}
		case float64:
			return compareFloat(float64(av), bv)
		}
	case float64:
		switch bv := b.(type) {
		case float64:
			return compareFloat(av, bv)
		case int64:
			return compareFloat(av, float64(bv))
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv)
		}
	case bool:
		if bv, ok := b.(bool); ok {
			switch {
			case av == bv:
				return 0
			case !av:
				return -1
			default:
				return 1
			}
		}
	}
	panic(fmt.Sprintf("backend: incomparable values %T and %T", a, b))
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// CompareKeys orders two composite keys lexicographically. A shorter
// key that is a prefix of a longer one sorts first.
func CompareKeys(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := CompareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// EncodeKey serializes a composite key to a string usable as a map key.
// The encoding is injective: distinct keys encode distinctly.
func EncodeKey(key []Value) string {
	var buf [keyBufSize]byte
	return string(AppendKey(buf[:0], key))
}

// keyBufSize sizes the stack buffers keys are encoded into before a
// map probe or a string conversion; longer keys spill to the heap.
const keyBufSize = 64

// AppendKey appends EncodeKey's encoding of key to b, so a caller with
// a buffer to reuse can probe a map with m[string(b)] without building
// a string per lookup. Each component is self-delimiting (a tag byte,
// then a fixed width or a length prefix), so appending several keys one
// after another is injective over the concatenated components too. It
// panics on a component that is not a Value; appendKey reports it.
func AppendKey(b []byte, key []Value) []byte {
	b, err := appendKey(b, key)
	if err != nil {
		panic(err.Error())
	}
	return b
}

// appendKey is AppendKey, failing on a component that is not a Value.
func appendKey(b []byte, key []Value) ([]byte, error) {
	for _, v := range key {
		switch x := v.(type) {
		case int64:
			b = binary.BigEndian.AppendUint64(append(b, 'i'), uint64(x))
		case float64:
			b = binary.BigEndian.AppendUint64(append(b, 'f'), math.Float64bits(x))
		case string:
			b = append(binary.BigEndian.AppendUint64(append(b, 's'), uint64(len(x))), x...)
		case bool:
			if x {
				b = append(b, 'b', 1)
			} else {
				b = append(b, 'b', 0)
			}
		default:
			return b, fmt.Errorf("backend: unsupported key value %T", v)
		}
	}
	return b, nil
}

// checkKey fails on a key component that is not a Value: comparing it
// would panic.
func checkKey(key ...Value) error {
	for _, v := range key {
		switch v.(type) {
		case int64, float64, string, bool:
		default:
			return fmt.Errorf("backend: unsupported key value %T", v)
		}
	}
	return nil
}
