package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nose/internal/lp"
)

// pinRowFirst builds what PinObjective derives the way a builder that
// knows the pinned bound up front would: the leading row c·x ≤ hi first,
// then p's rows, then each column with its entries, its objective
// coefficient on the leading row at(j, k) entries in, where k is its
// entry count.
func pinRowFirst(p *lp.Problem, hi float64, obj []float64, at func(col, k int) int) *lp.Problem {
	q := lp.NewProblem()
	q.AddRow(math.Inf(-1), hi)
	for i := 0; i < p.NumRows(); i++ {
		q.AddRow(p.RowBounds(i))
	}
	for j := 0; j < p.NumCols(); j++ {
		var es []lp.Entry
		old := p.ColEntries(j)
		pos := -1
		if c := p.Obj(j); c != 0 {
			pos = min(at(j, len(old)), len(old))
		}
		for i, e := range old {
			if i == pos {
				es = append(es, lp.Entry{Row: 0, Coef: p.Obj(j)})
			}
			es = append(es, lp.Entry{Row: e.Row + 1, Coef: e.Coef})
		}
		if pos == len(old) {
			es = append(es, lp.Entry{Row: 0, Coef: p.Obj(j)})
		}
		lo, hi := p.ColBounds(j)
		q.AddCol(obj[j], lo, hi, es...)
	}
	return q
}

// sameProblem compares two problems bit for bit: row bounds, column
// bounds, objective and every column's entries in order.
func sameProblem(want, got *lp.Problem) error {
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		return fmt.Errorf("%d×%d, want %d×%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	bits := math.Float64bits
	for i := 0; i < want.NumRows(); i++ {
		wl, wh := want.RowBounds(i)
		gl, gh := got.RowBounds(i)
		if bits(wl) != bits(gl) || bits(wh) != bits(gh) {
			return fmt.Errorf("row %d bounds [%v, %v], want [%v, %v]", i, gl, gh, wl, wh)
		}
	}
	for j := 0; j < want.NumCols(); j++ {
		wl, wh := want.ColBounds(j)
		gl, gh := got.ColBounds(j)
		if bits(wl) != bits(gl) || bits(wh) != bits(gh) || bits(want.Obj(j)) != bits(got.Obj(j)) {
			return fmt.Errorf("col %d bounds or objective differ", j)
		}
		we, ge := want.ColEntries(j), got.ColEntries(j)
		if len(we) != len(ge) {
			return fmt.Errorf("col %d has %d entries, want %d", j, len(ge), len(we))
		}
		for t := range we {
			if we[t].Row != ge[t].Row || bits(we[t].Coef) != bits(ge[t].Coef) {
				return fmt.Errorf("col %d entry %d is %v, want %v", j, t, ge[t], we[t])
			}
		}
	}
	return nil
}

// TestPinObjectiveMatchesRowFirst: the derived problem is, entry for
// entry and in order, the one built row first, wherever at places each
// coefficient; the source problem is left as it was, and both solve to
// the same bits.
func TestPinObjectiveMatchesRowFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng)
		before := pinRowFirst(p, 0, make([]float64, p.NumCols()), func(_, k int) int { return k })
		obj := make([]float64, p.NumCols())
		at := make([]int, p.NumCols())
		for j := range obj {
			if rng.Intn(2) == 0 {
				obj[j] = float64(rng.Intn(3))
			}
			at[j] = rng.Intn(len(p.ColEntries(j)) + 2) // past the end means last
		}
		place := func(col, k int) int { return at[col] }
		hi := 5 * rng.Float64()
		want := pinRowFirst(p, hi, obj, place)
		got := p.PinObjective(hi, obj, place)
		if err := sameProblem(want, got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := sameProblem(before, pinRowFirst(p, 0, make([]float64, p.NumCols()), func(_, k int) int { return k })); err != nil {
			t.Fatalf("trial %d: PinObjective changed its source: %v", trial, err)
		}
		ws, err := lp.NewSolver().SolveFrom(want, nil)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := lp.NewSolver().SolveFrom(got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Status != gs.Status || math.Float64bits(ws.Objective) != math.Float64bits(gs.Objective) {
			t.Fatalf("trial %d: %v at %v, want %v at %v", trial, gs.Status, gs.Objective, ws.Status, ws.Objective)
		}
	}
}

// TestReservedColumnsFillInPlace: a column with room takes its later
// entries in the storage it was created with, carved from the reserved
// block, and a column that outgrows its room still takes them.
func TestReservedColumnsFillInPlace(t *testing.T) {
	p := lp.NewProblem()
	p.Reserve(3, []int{3, 2})
	for i := 0; i < 3; i++ {
		p.AddRow(math.Inf(-1), 1)
	}
	p.AddCol(1, 0, 1, lp.Entry{Row: 0, Coef: 1})
	p.AddCol(-1, 0, 1)
	p.AddEntry(1, 0, 1)
	first, second := &p.ColEntries(0)[0], &p.ColEntries(1)[0]
	p.AddEntry(0, 1, 2)
	p.AddEntry(0, 2, 3)
	p.AddEntry(1, 2, 1)
	if &p.ColEntries(0)[0] != first || &p.ColEntries(1)[0] != second {
		t.Error("an entry within a column's room moved the column's storage")
	}
	p.AddEntry(1, 1, 4) // past the column's room
	want := [][]lp.Entry{{{Row: 0, Coef: 1}, {Row: 1, Coef: 2}, {Row: 2, Coef: 3}}, {{Row: 0, Coef: 1}, {Row: 2, Coef: 1}, {Row: 1, Coef: 4}}}
	for j, es := range want {
		if got := p.ColEntries(j); fmt.Sprint(got) != fmt.Sprint(es) {
			t.Errorf("col %d entries %v, want %v", j, got, es)
		}
	}
	if _, err := p.Solve(); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintMatchesSameProblem: two problems have equal
// fingerprints exactly when sameProblem finds them equal, bit for bit
// and entry for entry. The pairs are one problem pinned with every
// objective coefficient placed first among its column's entries and
// placed last, which differ in entry order alone wherever a column with
// a coefficient has an entry, and the same pin built row first.
func TestFingerprintMatchesSameProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var equal, differ int
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng)
		obj := make([]float64, p.NumCols())
		for j := range obj {
			obj[j] = float64(rng.Intn(3))
		}
		firstAt := func(_, _ int) int { return 0 }
		first := p.PinObjective(1, obj, firstAt)
		last := p.PinObjective(1, obj, func(_, k int) int { return k })
		same := sameProblem(first, last) == nil
		if (first.Fingerprint() == last.Fingerprint()) != same {
			t.Fatalf("trial %d: fingerprints equal %v, problems equal %v", trial, !same, same)
		}
		if same {
			equal++
		} else {
			differ++
		}
		if first.Fingerprint() != pinRowFirst(p, 1, obj, firstAt).Fingerprint() {
			t.Fatalf("trial %d: one problem built two ways has two fingerprints", trial)
		}
	}
	if equal == 0 || differ == 0 {
		t.Errorf("%d equal and %d differing pairs: both cases must occur", equal, differ)
	}
}
