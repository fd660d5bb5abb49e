package enumerator_test

import (
	"context"
	"fmt"
	"testing"

	"nose/internal/enumerator"
	"nose/internal/hotel"
	"nose/internal/model"
	"nose/internal/obs"
	"nose/internal/randwork"
	"nose/internal/rubis"
	"nose/internal/schema"
	"nose/internal/workload"
)

// enumerationFingerprint flattens an enumeration into a comparable
// form: candidate names and IDs in insertion order, every update's
// support-query map rendered per candidate, and every counter.
func enumerationFingerprint(w *workload.Workload, pool []*schema.Index, support map[workload.WriteStatement]map[string][]*workload.Query, r *obs.Registry) []string {
	var out []string
	for _, x := range pool {
		out = append(out, x.Name+"="+x.ID())
	}
	for _, ws := range w.Updates() {
		u := ws.Statement.(workload.WriteStatement)
		perIndex := support[u]
		for _, x := range pool {
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
	return append(out, r.Snapshot().DeterministicFingerprint())
}

// compareWithReference enumerates w with the un-memoised per-item
// reference and with the product, and requires identical fingerprints.
func compareWithReference(t *testing.T, w *workload.Workload, feats enumerator.Features) {
	t.Helper()
	refReg := obs.NewRegistry()
	ref, err := refEnumerateWorkload(w, feats, refReg)
	if err != nil {
		t.Fatal(err)
	}
	want := enumerationFingerprint(w, ref.pool.Indexes(), ref.support, refReg)
	reg := obs.NewRegistry()
	res, err := enumerator.EnumerateWorkloadCtx(context.Background(), w, feats, reg)
	if err != nil {
		t.Fatal(err)
	}
	got := enumerationFingerprint(w, res.Pool.Indexes(), res.Support, reg)
	if len(got) != len(want) {
		t.Fatalf("%d fingerprint lines vs %d from the reference", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d differs\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
}

func hotelWorkload() *workload.Workload {
	g := hotel.Graph()
	w := workload.New(g)
	for _, src := range []string{hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery} {
		w.Add(workload.MustParse(g, src), 1)
	}
	for _, src := range hotel.UpdateStatements {
		w.Add(workload.MustParse(g, src), 0.5)
	}
	return w
}

func rubisWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEnumerationMatchesReference: the pool content, candidate naming,
// insertion order, support-query maps and counters must be
// byte-identical to the reference's.
func TestEnumerationMatchesReference(t *testing.T) {
	t.Run("hotel", func(t *testing.T) { compareWithReference(t, hotelWorkload(), enumerator.Features{}) })
	t.Run("rubis", func(t *testing.T) { compareWithReference(t, rubisWorkload(t), enumerator.Features{}) })
}

// TestEnumerationMatchesReferenceRandwork is the differential test over
// random workloads, where most support queries repeat a signature.
func TestEnumerationMatchesReferenceRandwork(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 2
	}
	for factor := 1; factor <= 3; factor++ {
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("factor=%d/seed=%d", factor, seed), func(t *testing.T) {
				w, err := randwork.Generate(randwork.Config{Factor: factor, Seed: int64(seed)})
				if err != nil {
					t.Fatal(err)
				}
				compareWithReference(t, w, enumerator.Features{})
			})
		}
	}
}

// TestEnumerationMatchesReferenceFeatures covers the ablation toggles:
// SkipReverse changes what a signature enumerates, so the memo must be
// per run, and SkipCombine drops the supplement.
func TestEnumerationMatchesReferenceFeatures(t *testing.T) {
	for _, feats := range []enumerator.Features{{SkipReverse: true}, {SkipCombine: true}, {SkipReverse: true, SkipCombine: true}} {
		t.Run(fmt.Sprintf("%+v", feats), func(t *testing.T) {
			compareWithReference(t, rubisWorkload(t), feats)
		})
	}
}

// cyclicWorkload is hand-built around the two places where decomposition
// meets a signature again. Statements bypass Validate on purpose: the
// statement language rejects self references, the enumerator must still
// terminate and stay deterministic on them.
//
//   - far: over A.bs.cs with predicates at the far end. Its far-end
//     remainder differs from it (the range predicate on C is dropped),
//     and that remainder's own far-end remainder reproduces its parent
//     while the parent is still in progress; its middle remainder over
//     A.bs was already finished by far itself.
//   - farRemainder: a top-level query with exactly that remainder's
//     signature. Enumerated stand-alone it must also contribute the
//     A.bs candidates that, inside far, an earlier sibling had already
//     visited — a memo of the recursive closure would replay the
//     shorter list recorded inside far.
//   - self: over A.peers, a relationship from A to A.
//   - touch: an update of the attributes those candidates store, so
//     the support passes pose the same side queries many times.
func cyclicWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	g := model.NewGraph()
	a := g.AddEntity("A", "AID", 1000)
	ax := a.AddAttribute("AX", model.StringType)
	b := g.AddEntity("B", "BID", 5000)
	bx := b.AddAttribute("BX", model.IntegerType)
	c := g.AddEntity("C", "CID", 20000)
	cx := c.AddAttribute("CX", model.IntegerType)
	ab := g.MustAddRelationship("A", "bs", "B", "a", model.OneToMany)
	bc := g.MustAddRelationship("B", "cs", "C", "b", model.OneToMany)
	peers := g.MustAddRelationship("A", "peers", "A", "peerOf", model.ManyToMany)

	abc := model.NewPath(a).Append(ab).Append(bc)
	far := &workload.Query{
		Label:  "far",
		Graph:  g,
		Path:   abc,
		Select: []workload.AttrRef{{Index: 0, Attr: ax}, {Index: 1, Attr: bx}},
		Where: []workload.Predicate{
			{Ref: workload.AttrRef{Index: 2, Attr: c.Key()}, Op: workload.Eq, Param: "c"},
			{Ref: workload.AttrRef{Index: 2, Attr: cx}, Op: workload.Gt, Param: "cx"},
		},
	}
	farRemainder := enumerator.RemainderQuery(far, 2)
	farRemainder.Label = "farRemainder"
	self := &workload.Query{
		Label:  "self",
		Graph:  g,
		Path:   model.NewPath(a).Append(peers),
		Select: []workload.AttrRef{{Index: 0, Attr: ax}},
		Where:  []workload.Predicate{{Ref: workload.AttrRef{Index: 1, Attr: a.Key()}, Op: workload.Eq, Param: "peer"}},
	}
	touch := &workload.Update{
		Label: "touch",
		Graph: g,
		Path:  model.NewPath(a),
		Set:   []workload.Assignment{{Attr: ax, Param: "ax"}},
		Where: []workload.Predicate{{Ref: workload.AttrRef{Index: 0, Attr: a.Key()}, Op: workload.Eq, Param: "a"}},
	}
	w := workload.New(g)
	w.Add(far, 1)
	w.Add(farRemainder, 1)
	w.Add(self, 1)
	w.Add(touch, 1)
	return w
}

func TestEnumerationMatchesReferenceCyclic(t *testing.T) {
	compareWithReference(t, cyclicWorkload(t), enumerator.Features{})
}

// TestSignaturesKeepPathPositions: over A.peers, a relationship from A
// to A, the same predicate at position 1 or at position 0 makes two
// different queries. A signature that spells attributes without their
// positions gives both one memo entry, and the second query then
// replays the first one's candidates (9 where the reference finds 11).
func TestSignaturesKeepPathPositions(t *testing.T) {
	g := model.NewGraph()
	a := g.AddEntity("A", "AID", 1000)
	ax := a.AddAttribute("AX", model.StringType)
	peers := g.MustAddRelationship("A", "peers", "A", "peerOf", model.ManyToMany)
	query := func(label string, at int) *workload.Query {
		return &workload.Query{
			Label:  label,
			Graph:  g,
			Path:   model.NewPath(a).Append(peers),
			Select: []workload.AttrRef{{Index: 0, Attr: ax}},
			Where:  []workload.Predicate{{Ref: workload.AttrRef{Index: at, Attr: a.Key()}, Op: workload.Eq, Param: "a"}},
		}
	}
	q1, q2 := query("q1", 1), query("q2", 0)
	if enumerator.QuerySignature(q1) == enumerator.QuerySignature(q2) {
		t.Fatalf("q1 and q2 share the signature %q", enumerator.QuerySignature(q1))
	}
	w := workload.New(g)
	w.Add(q1, 1)
	w.Add(q2, 1)
	compareWithReference(t, w, enumerator.Features{})
}
