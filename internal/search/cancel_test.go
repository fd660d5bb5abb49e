package search_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"nose/internal/hotel"
	"nose/internal/nosedsl"
	"nose/internal/obs"
	"nose/internal/search"
	"nose/internal/service/api"
	"nose/internal/workload"
)

// slowDSL builds a chain-model workload whose advise takes minutes:
// long query paths make candidate enumeration exponential and updates
// plus a tight space budget make the integer program hard. Cancel tests
// rely on it never finishing within a test run.
func slowDSL() string {
	const entities, queries = 10, 24
	var b strings.Builder
	for i := 0; i < entities; i++ {
		fmt.Fprintf(&b, "entity E%d E%dID 1000\n", i, i)
		fmt.Fprintf(&b, "attr E%d.A%d string cardinality 100\n", i, i)
		fmt.Fprintf(&b, "attr E%d.B%d integer cardinality 50\n", i, i)
	}
	for i := 0; i+1 < entities; i++ {
		fmt.Fprintf(&b, "rel E%d.Kids%d E%d.Parent%d one-to-many\n", i, i, i+1, i)
	}
	for q := 0; q < queries; q++ {
		start := q % (entities - 4)
		path := fmt.Sprintf("E%d", start+4)
		nav := fmt.Sprintf("E%d.Parent%d.Parent%d.Parent%d.Parent%d", start+4, start+3, start+2, start+1, start)
		fmt.Fprintf(&b, "stmt 0.1 Q%d: SELECT %s.A%d FROM %s WHERE %s.A%d = ?p%d AND %s.B%d > ?r%d\n",
			q, path, start+4, path, nav, start, q, path, start+4, q)
	}
	for i := 0; i < entities; i++ {
		fmt.Fprintf(&b, "stmt 0.2 U%d: UPDATE E%d SET A%d = ? WHERE E%d.E%dID = ?id%d\n", i, i, i, i, i, i)
	}
	return b.String()
}

func parseSlow(t *testing.T) *workload.Workload {
	t.Helper()
	_, w, err := nosedsl.Parse(slowDSL())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAdviseCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := hotel.Graph()
	w := workload.New(g)
	w.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 1)
	trace := obs.NewTracer()
	if _, err := search.Advise(w, search.Options{Ctx: ctx, Trace: trace}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := spanNames(trace); !slices.Equal(got, []string{"enumerate", "advise"}) {
		t.Errorf("cancelled advise traced %v, want the stage it died in and the root", got)
	}
	trace = obs.NewTracer()
	if _, err := search.AdviseSeries(loadPhasedHotel(t), search.Options{Ctx: ctx, Trace: trace}); !errors.Is(err, context.Canceled) {
		t.Fatalf("series err = %v, want context.Canceled", err)
	}
	if got := spanNames(trace); !slices.Equal(got, []string{"enumerate", "advise-series"}) {
		t.Errorf("cancelled series traced %v, want the stage it died in and the root", got)
	}
}

// spanNames lists the spans a tracer recorded, in the order they ended.
func spanNames(trace *obs.Tracer) []string {
	events, _ := trace.EventsSince(0)
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.Name
	}
	return names
}

// TestAdviseCancelPrompt proves a cancelled solve returns quickly: the
// workload takes minutes uncancelled, the context fires at 100ms, and
// the advisor must be back within seconds no matter which stage —
// enumeration, planning, or branch and bound — the cancel lands in.
func TestAdviseCancelPrompt(t *testing.T) {
	w := parseSlow(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	type outcome struct {
		rec *search.Recommendation
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		rec, err := search.Advise(w, search.Options{
			Workers:          2,
			SpaceBudgetBytes: 2e6,
			Ctx:              ctx,
		})
		done <- outcome{rec, err}
	}()
	select {
	case out := <-done:
		if !errors.Is(out.err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", out.err)
		}
		if out.rec != nil {
			t.Fatal("cancelled advise returned a partial recommendation")
		}
		if d := time.Since(start); d > 30*time.Second {
			t.Fatalf("cancelled advise took %v to return", d)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("advise did not return after cancellation")
	}
}

// cancelInPlanning is a context that cancels itself at the third
// check made after the tracer has recorded a span. The first span an
// advise records is "enumerate", so with one worker the cancel lands on
// the third item of the plan-space fan-out.
type cancelInPlanning struct {
	context.Context
	cancel context.CancelFunc
	trace  *obs.Tracer
	checks int
}

func (c *cancelInPlanning) Err() error {
	if c.trace.Len() > 0 {
		if c.checks++; c.checks == 3 {
			c.cancel()
		}
	}
	return c.Context.Err()
}

// TestAdviseAfterCancelledPlanning: an advise cancelled while plan
// spaces are being generated leaves nothing behind on the workload, its
// graph or the statistics they cache — a fresh advise of the same
// workload object encodes to the bytes of a run that was never
// preceded by a cancel.
func TestAdviseAfterCancelledPlanning(t *testing.T) {
	encode := func(w *workload.Workload) []byte {
		data, err := api.Encode(api.Advise(w, adviseHotel(t, w, search.Options{})))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	pristine := encode(hotelWorkload(t))

	w := hotelWorkload(t)
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	trace := obs.NewTracer()
	ctx := &cancelInPlanning{Context: inner, cancel: cancel, trace: trace}
	if _, err := search.Advise(w, search.Options{Workers: 1, Ctx: ctx, Trace: trace}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Enumeration finished, the plan-space stage the cancel landed in
	// closed its span on the error path, and the deferred root span
	// closed on the way out.
	if got := spanNames(trace); !slices.Equal(got, []string{"enumerate", "plan-spaces", "advise"}) {
		t.Fatalf("cancel did not land in the plan-space stage: spans %v", got)
	}

	if got := encode(w); !bytes.Equal(got, pristine) {
		t.Fatalf("advise after a cancelled one differs from a never-cancelled run:\n%s\nvs\n%s", got, pristine)
	}
}

// cancelInPhase2 is a context that cancels itself at the first check
// made after the "formulate phase 2" span has ended: the next span to
// begin is "solve phase 2", and branch and bound checks its context
// before the root relaxation, so the cancel lands inside phase 2.
type cancelInPhase2 struct {
	context.Context
	cancel context.CancelFunc
	trace  *obs.Tracer
}

func (c *cancelInPhase2) Err() error {
	if names := spanNames(c.trace); len(names) > 0 && names[len(names)-1] == "formulate phase 2" {
		c.cancel()
	}
	return c.Context.Err()
}

// TestAdviseCancelledInPhase2: a cancel that lands in the second solver
// phase is the caller's error, not a phase-2 failure to recover from
// with phase 1's answer. Advise returns context.Canceled and no
// recommendation.
func TestAdviseCancelledInPhase2(t *testing.T) {
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	trace := obs.NewTracer()
	ctx := &cancelInPhase2{Context: inner, cancel: cancel, trace: trace}
	rec, err := search.Advise(hotelWorkload(t), search.Options{Workers: 1, Ctx: ctx, Trace: trace})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rec != nil {
		t.Fatal("an advise cancelled in phase 2 returned a recommendation")
	}
	want := []string{"enumerate", "plan-spaces", "formulate", "solve phase 1", "formulate phase 2", "solve phase 2", "advise"}
	if got := spanNames(trace); !slices.Equal(got, want) {
		t.Fatalf("cancel did not land in phase 2: spans %v, want %v", got, want)
	}
}
