package executor

import (
	"testing"

	"nose/internal/backend"
	"nose/internal/obs"
)

// Get returns the value of a column by qualified attribute name. No
// production caller reads one cell of a row; the reference comparison
// and the ordering and semantics tests do.
func (t Tuple) Get(name string) (backend.Value, bool) {
	if t.cols != nil {
		for i, n := range t.cols.names {
			if n == name {
				return t.vals[i], true
			}
		}
	}
	return nil, false
}

// RegisteredCounter and RegisteredGauge read an instrument by name from
// a registry the tests bound with SetObs. A name the registry never
// registered fails the test: Registry.Counter would create it, and a
// misspelt name would read as a silent zero.
func RegisteredCounter(t testing.TB, r *obs.Registry, name string) int64 {
	t.Helper()
	v, ok := r.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("counter %q is not registered", name)
	}
	return v
}

func RegisteredGauge(t testing.TB, r *obs.Registry, name string) float64 {
	t.Helper()
	v, ok := r.Snapshot().Gauges[name]
	if !ok {
		t.Fatalf("gauge %q is not registered", name)
	}
	return v
}
