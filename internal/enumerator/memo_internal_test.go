package enumerator

import (
	"sync"
	"testing"

	"nose/internal/randwork"
	"nose/internal/workload"
)

// TestMemoSharedByWorkers hammers one run from 8 goroutines with the
// requests Algorithm 1 makes of it — every query and every support
// query of every (update, candidate) pair, a few hundred signatures
// asked for thousands of times — each goroutine starting at a different
// request so misses race. Every answer must be the list a private serial
// run computes, made of the shared run's canonical instances, and the
// memo must end up the size of the serial one. Run with -race.
func TestMemoSharedByWorkers(t *testing.T) {
	w, err := randwork.Generate(randwork.Config{Factor: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := EnumerateWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	var asks []*workload.Query
	for _, ws := range w.Queries() {
		asks = append(asks, ws.Statement.(*workload.Query))
	}
	for _, perIndex := range res.Support {
		for _, sqs := range perIndex {
			asks = append(asks, sqs...)
		}
	}

	serial := newRun(Features{})
	serialWork := serial.newWork()
	want := make([][]*cand, len(asks))
	for i, q := range asks {
		if want[i], err = serialWork.enumerate(q); err != nil {
			t.Fatal(err)
		}
	}
	if len(serial.queries.m)*4 > len(asks) {
		t.Fatalf("%d requests over %d signatures: not the repetition this test is for", len(asks), len(serial.queries.m))
	}

	const workers = 8
	shared := newRun(Features{})
	got := make([][][]*cand, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			work := shared.newWork()
			got[g] = make([][]*cand, len(asks))
			for k := range asks {
				i := (k + g*len(asks)/workers) % len(asks)
				list, err := work.enumerate(asks[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = list
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i := range asks {
		first := got[0][i]
		if len(first) != len(want[i]) {
			t.Fatalf("request %d: %d candidates, serial run has %d", i, len(first), len(want[i]))
		}
		for j, c := range first {
			x := c.x
			if x.ID() != want[i][j].x.ID() {
				t.Fatalf("request %d candidate %d: %s, serial run has %s", i, j, x.ID(), want[i][j].x.ID())
			}
			if shared.byID[x.ID()] != c {
				t.Fatalf("request %d candidate %d: %s is not the run's canonical instance", i, j, x.ID())
			}
			if x.Name != "" {
				t.Fatalf("request %d candidate %d: named %q before any merge", i, j, x.Name)
			}
		}
		for g := 1; g < workers; g++ {
			if len(got[g][i]) != len(first) || (len(first) > 0 && &got[g][i][0] != &first[0]) {
				t.Fatalf("request %d: goroutine %d was handed a different list than goroutine 0", i, g)
			}
		}
	}
	if len(shared.queries.m) != len(serial.queries.m) || len(shared.views.m) != len(serial.views.m) || len(shared.byID) != len(serial.byID) {
		t.Errorf("shared memo holds %d signatures, %d view families, %d candidates; serial %d, %d, %d",
			len(shared.queries.m), len(shared.views.m), len(shared.byID),
			len(serial.queries.m), len(serial.views.m), len(serial.byID))
	}
}
