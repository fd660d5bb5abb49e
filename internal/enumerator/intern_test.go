package enumerator_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nose/internal/enumerator"
	"nose/internal/model"
	"nose/internal/obs"
	"nose/internal/randwork"
	"nose/internal/schema"
	"nose/internal/workload"
)

// structure spells out what a candidate is, by pointer and without its
// ID: the path's entity and edges, the partition key and the values as
// sets, and the clustering key in order.
func structure(x *schema.Index) string {
	set := func(attrs []*model.Attribute) []string {
		var out []string
		for _, a := range attrs {
			out = append(out, fmt.Sprintf("%p", a))
		}
		slices.Sort(out)
		return out
	}
	var clustering []string
	for _, a := range x.Clustering {
		clustering = append(clustering, fmt.Sprintf("%p", a))
	}
	edges := make([]string, len(x.Path.Edges))
	for i, ed := range x.Path.Edges {
		edges[i] = fmt.Sprintf("%p", ed)
	}
	return fmt.Sprintf("%p %v %v %v %v", x.Path.Start, edges, set(x.Partition), clustering, set(x.Values))
}

// TestInternKeysIdentifyStructures: the run interns a candidate under
// schema.AppendID, built before the candidate is. Over every candidate
// RUBiS and randwork f3 s42 build — every one the reference enumeration
// constructs, repeats and combined candidates included — the key must
// not depend on the order of the partition and value sets, must be the
// ID schema.New gives the candidate, must never be shared by two
// structures, and a structure must never get two keys. Keys are the
// IDs themselves, not hashes of them, so no collision needs forcing.
// The product's intern table must then hold each of those structures
// under its key and nothing else: its keys are the ones the reference
// derived, each naming the structure it names there, so the walk keys
// a structure exactly as schema.AppendID does. (Combine's candidates
// join the pool without being interned.)
func TestInternKeysIdentifyStructures(t *testing.T) {
	f3, err := randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		w    *workload.Workload
	}{{"rubis", rubisWorkload(t)}, {"randwork-f3-s42", f3}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			byKey := map[string]string{}
			byStructure := map[string]string{}
			builds := 0
			refBuilt = func(x *schema.Index) {
				builds++
				part, vals := slices.Clone(x.Partition), slices.Clone(x.Values)
				rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
				rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
				key := string(schema.AppendID(nil, x.Path, part, x.Clustering, vals))
				if id := schema.New(x.Path, x.Partition, x.Clustering, x.Values).ID(); key != id {
					t.Fatalf("key %q, but schema.New gives ID %q", key, id)
				}
				s := structure(x)
				if other, ok := byKey[key]; ok && other != s {
					t.Fatalf("key %q names two structures:\n%s\n%s", key, other, s)
				}
				if other, ok := byStructure[s]; ok && other != key {
					t.Fatalf("structure %s has two keys:\n%q\n%q", s, other, key)
				}
				byKey[key], byStructure[s] = s, key
			}
			defer func() { refBuilt = nil }()
			if _, err := refEnumerateWorkload(tc.w, enumerator.Features{}, obs.NewRegistry()); err != nil {
				t.Fatal(err)
			}
			refBuilt = nil

			table, err := enumerator.InternTable(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			for key, x := range table {
				if s, ok := byKey[key]; !ok || s != structure(x) {
					t.Fatalf("the run interns %s under %q, which the reference does not give it", structure(x), key)
				}
			}
			reg := obs.NewRegistry()
			res, err := enumerator.EnumerateWorkloadCtx(context.Background(), tc.w, enumerator.Features{}, reg)
			if err != nil {
				t.Fatal(err)
			}
			if want := res.Pool.Len() - int(reg.Snapshot().Counters["enum.combined"]); len(table) != want {
				t.Fatalf("the run interns %d structures, its pool holds %d before Combine", len(table), want)
			}
			if builds < 2*len(byKey) {
				t.Errorf("%d builds of %d structures: not the repetition this test is for", builds, len(byKey))
			}
			t.Logf("%d builds, %d structures, %d interned", builds, len(byKey), len(table))
		})
	}
}
