package enumerator_test

import (
	"context"
	"testing"

	"nose/internal/enumerator"
	"nose/internal/hotel"
	"nose/internal/rubis"
	"nose/internal/workload"
)

// enumerationFingerprint flattens a Result into a comparable form:
// candidate names and IDs in insertion order, plus every update's
// support-query map rendered per candidate.
func enumerationFingerprint(t *testing.T, w *workload.Workload, res *enumerator.Result) []string {
	t.Helper()
	var out []string
	for _, x := range res.Pool.Indexes() {
		out = append(out, x.Name+"="+x.ID())
	}
	for _, ws := range w.Updates() {
		u := ws.Statement.(workload.WriteStatement)
		perIndex := res.Support[u]
		for _, x := range res.Pool.Indexes() {
			sqs, ok := perIndex[x.ID()]
			if !ok {
				continue
			}
			line := workload.Label(u) + "/" + x.ID() + ":"
			for _, sq := range sqs {
				line += enumerator.QuerySignature(sq) + ";"
			}
			out = append(out, line)
		}
	}
	return out
}

// TestParallelEnumerationIdentical: for every worker count the pool
// content, candidate naming, insertion order, and support-query maps
// must be byte-identical to the serial run.
func TestParallelEnumerationIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *workload.Workload
	}{
		{"hotel", func(t *testing.T) *workload.Workload {
			g := hotel.Graph()
			w := workload.New(g)
			for _, src := range []string{hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery} {
				w.Add(workload.MustParse(g, src), 1)
			}
			for _, src := range hotel.UpdateStatements {
				w.Add(workload.MustParse(g, src), 0.5)
			}
			return w
		}},
		{"rubis", func(t *testing.T) *workload.Workload {
			w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
			if err != nil {
				t.Fatal(err)
			}
			return w
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.build(t)
			serial, err := enumerator.EnumerateWorkload(w)
			if err != nil {
				t.Fatal(err)
			}
			want := enumerationFingerprint(t, w, serial)
			for _, workers := range []int{2, 4, 8} {
				res, err := enumerator.EnumerateWorkloadCtx(context.Background(), w, enumerator.Features{}, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				got := enumerationFingerprint(t, w, res)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d fingerprint lines vs %d serial", workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: line %d differs\n got: %s\nwant: %s", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}
