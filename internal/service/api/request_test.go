package api_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nose/internal/search"
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

// TestHostileWorkerCountIsHarmless: a request's worker count is outside
// input, and the stages that fan out — plan spaces and branch and
// bound — must size per-worker state by the workers that can run, not
// by the count asked for. Advising the hotel example at a million
// workers returns the same document as at four and allocates at most
// twice the bytes. An eight-byte slot per requested worker is 8 GB at
// workers=1e9: an unrecoverable out-of-memory crash of the daemon.
func TestHostileWorkerCountIsHarmless(t *testing.T) {
	dsl, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "hotel.nose"))
	if err != nil {
		t.Fatal(err)
	}
	// advise returns one advise's document and bytes, measured as the
	// executor's allocation test measures: at GOMAXPROCS 1 after a
	// warm-up advise, and the least of three windows, since TotalAlloc
	// counts the whole process and a window in which something else
	// allocates reads high.
	advise := func(workers int) ([]byte, uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var doc []byte
		least := uint64(math.MaxUint64)
		for window := 0; window <= 3; window++ { // window 0 warms up
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := api.Request{DSL: string(dsl), Workers: workers}.Run(context.Background(), api.KindAdvise, nil, nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if window > 0 {
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			doc = d
		}
		return doc, least
	}
	want, base := advise(4)
	got, hostile := advise(1 << 20)
	if !bytes.Equal(got, want) {
		t.Errorf("workers=1<<20 advised a different document:\n%s\nvs\n%s", got, want)
	}
	if hostile > 2*base {
		t.Errorf("workers=1<<20 allocated %d bytes, workers=4 %d: want at most twice", hostile, base)
	}
	t.Logf("allocated %d bytes at workers=4, %d at workers=1<<20", base, hostile)
}

// TestNonFiniteWeightsAreRejected: a weight or duration the advisor
// cannot price is an error naming the statement or phase, never a
// silently dropped statement, a solver failure or a false proof of
// infeasibility. A weight of zero still excludes its statement.
func TestNonFiniteWeightsAreRejected(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "hotel.nose"))
	if err != nil {
		t.Fatal(err)
	}
	const stmt = "stmt 0.30 RoomsByCity:"
	if !strings.Contains(string(src), stmt) {
		t.Fatalf("hotel.nose has no %q", stmt)
	}
	weigh := func(spec string) string {
		return strings.Replace(string(src), stmt, "stmt "+spec+" RoomsByCity:", 1)
	}
	for _, tc := range []struct {
		name, dsl, mix, kind, names string
	}{
		{"NaN weight", weigh("NaN"), "", api.KindAdvise, "RoomsByCity"},
		{"negative second mix", weigh("mix(a=1,b=-5)"), "b", api.KindAdvise, "RoomsByCity"},
		{"NaN second mix", weigh("mix(a=1,b=NaN)"), "b", api.KindAdvise, "RoomsByCity"},
		{"NaN override", string(src) + "phase launch RoomsByCity=NaN\nphase steady\n", "", api.KindSeries, "launch"},
		{"Inf weight", weigh("Inf"), "", api.KindAdvise, "RoomsByCity"},
		{"overflowing weight", weigh("1e308"), "", api.KindAdvise, "RoomsByCity"},
		{"NaN duration", string(src) + "phase launch duration NaN\nphase steady\n", "", api.KindSeries, "launch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := api.Request{DSL: tc.dsl, Mix: tc.mix, Workers: 1}.Run(context.Background(), tc.kind, nil, nil)
			if err == nil {
				t.Fatal("advised without an error")
			}
			if !strings.Contains(err.Error(), tc.names) {
				t.Errorf("error %q does not name %s", err, tc.names)
			}
			if errors.Is(err, search.ErrInfeasible) {
				t.Errorf("error %q claims the workload is infeasible", err)
			}
		})
	}
	doc, err := api.Request{DSL: weigh("0"), Workers: 1}.Run(context.Background(), api.KindAdvise, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(doc, []byte(`"RoomsByCity"`)) || !bytes.Contains(doc, []byte(`"GuestsByCity"`)) {
		t.Errorf("a zero weight must exclude exactly its statement:\n%s", doc)
	}
}
