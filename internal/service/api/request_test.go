package api_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
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

// TestMixOnlyFileAdvisesReproducibly: a .nose file that weights its
// statements per mix only, advised with no mix named, takes the first
// mix as written — every time. The default used to be whichever mix Go's
// map iteration produced first, per statement, so the same request could
// return different schemas.
func TestMixOnlyFileAdvisesReproducibly(t *testing.T) {
	dsl, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "hotel-mixes.nose"))
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < 20; i++ {
		doc, err := api.Request{DSL: string(dsl), Workers: 1}.Run(context.Background(), api.KindAdvise, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = doc
		} else if !bytes.Equal(doc, first) {
			t.Fatalf("run %d returned a different document:\n%s\nvs\n%s", i, doc, first)
		}
	}
}
