package enumerator

import (
	"testing"

	"nose/internal/randwork"
	"nose/internal/workload"
)

// TestEachSignatureEnumeratedOnce poses to one run the requests
// Algorithm 1 makes of it — every query and every support query of
// every (update, candidate) pair, a few hundred signatures asked for
// thousands of times. The run must walk once per signature, and the
// memo must end up holding exactly the distinct signatures asked. A
// repeated ask must return the first answer's slice, pointer for
// pointer; a first answer must be the list a fresh run computes, made
// of the run's canonical, still unnamed instances.
func TestEachSignatureEnumeratedOnce(t *testing.T) {
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
	for _, ws := range w.Updates() {
		perIndex := res.Support[ws.Statement.(workload.WriteStatement)]
		for _, x := range res.Pool.Indexes() {
			asks = append(asks, perIndex[x.ID()]...)
		}
	}

	r := newRun(Features{})
	first := map[string][]*cand{}
	for i, q := range asks {
		list, err := r.enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		sig := QuerySignature(q)
		prev, seen := first[sig]
		if !seen {
			first[sig] = list
			want, err := newRun(Features{}).enumerate(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(list) != len(want) {
				t.Fatalf("request %d: %d candidates, a fresh run has %d", i, len(list), len(want))
			}
			for j, c := range list {
				if c.x.ID() != want[j].x.ID() {
					t.Fatalf("request %d candidate %d: %s, a fresh run has %s", i, j, c.x.ID(), want[j].x.ID())
				}
				if r.byID[c.x.ID()] != c {
					t.Fatalf("request %d candidate %d: %s is not the run's canonical instance", i, j, c.x.ID())
				}
				if c.x.Name != "" {
					t.Fatalf("request %d candidate %d: named %q before any merge", i, j, c.x.Name)
				}
			}
			continue
		}
		if len(list) != len(prev) || (len(prev) > 0 && &list[0] != &prev[0]) {
			t.Fatalf("request %d: a repeated ask was not answered with the first answer's list", i)
		}
	}
	if len(first)*4 > len(asks) {
		t.Fatalf("%d requests over %d signatures: not the repetition this test is for", len(asks), len(first))
	}
	if r.walks != len(r.queries) || len(r.queries) != len(first) {
		t.Errorf("%d walks and %d memoised signatures for %d distinct signatures asked", r.walks, len(r.queries), len(first))
	}
	t.Logf("%d requests, %d signatures, %d view families, %d candidates", len(asks), len(r.queries), len(r.views), len(r.byID))
}
