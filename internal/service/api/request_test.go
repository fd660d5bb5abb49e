package api_test

import (
	"math"
	"testing"

	"nose/internal/service/api"
)

// TestRequestValidate: the one knob check both front doors run. A
// budget must be a finite, non-negative byte count — NaN and ±Inf used
// to pass the daemon's "< 0" test and every bad value passed the CLI —
// and max-plans must not be negative.
func TestRequestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  api.Request
		ok   bool
	}{
		{"zero value", api.Request{}, true},
		{"budget and bound", api.Request{SpaceBytes: 12e6, MaxPlans: 8, Workers: -1}, true},
		{"negative budget", api.Request{SpaceBytes: -5}, false},
		{"NaN budget", api.Request{SpaceBytes: math.NaN()}, false},
		{"+Inf budget", api.Request{SpaceBytes: math.Inf(1)}, false},
		{"-Inf budget", api.Request{SpaceBytes: math.Inf(-1)}, false},
		{"negative max-plans", api.Request{MaxPlans: -1}, false},
	} {
		if err := tc.req.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
