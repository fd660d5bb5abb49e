package lp

import (
	"fmt"
	"math"
	"slices"
)

// Solve runs the two-phase bounded revised simplex method on a fresh
// solver. Production always holds a Solver (bip keeps one per worker);
// the tests solve one problem at a time.
func (p *Problem) Solve() (*Solution, error) { return NewSolver().SolveFrom(p, nil) }

// SetColBounds changes a column's bounds. It drops the problem's
// validation with its row copy, so that the next solve checks the new
// bounds.
func (p *Problem) SetColBounds(col int, lo, hi float64) {
	p.cols[col].lo, p.cols[col].hi = lo, hi
	p.byRow = nil
}

// Clone returns a deep copy of the problem, sharing only the read-only
// row-major copy of the entries: the tests mutate a copy's bounds,
// objective and entries and compare it with the original.
func (p *Problem) Clone() *Problem {
	cp := &Problem{
		cols:  make([]column, len(p.cols)),
		rows:  append([]rowBounds(nil), p.rows...),
		byRow: p.byRow,
	}
	copy(cp.cols, p.cols)
	for i := range cp.cols {
		cp.cols[i].entries = append([]Entry(nil), cp.cols[i].entries...)
	}
	return cp
}

// SetObj changes a column's objective coefficient. Like SetColBounds it
// drops the problem's validation.
func (p *Problem) SetObj(col int, obj float64) {
	p.cols[col].obj = obj
	p.byRow = nil
}

// SolveDense runs the dense reference engine of dense_test.go.
func SolveDense(p *Problem) (*Solution, error) { return solveDense(p) }

// Refactor rebuilds the eta file from the solver's current basis.
func (s *Solver) Refactor() bool { return s.refactor() }

// CheckRefactor refactorizes two copies of s's current basis, one with
// refactorOracle and one with refactor, and reports any difference
// (compareRefactor). It leaves s untouched.
func CheckRefactor(s *Solver) error {
	return compareRefactor(refactorInput(s), refactorInput(s))
}

// SetRefactorHook installs f at the top of every refactorization of
// every solver and returns the function that removes it.
func SetRefactorHook(f func(*Solver)) (restore func()) {
	testHookRefactor = f
	return func() { testHookRefactor = nil }
}

// SetPivotHook installs f after every simplex pivot of every solver —
// primal and dual, after any refactorization the pivot triggered — and
// returns the function that removes it. f sees the objective being
// minimized.
func SetPivotHook(f func(s *Solver, c []float64)) (restore func()) {
	testHookPivot = f
	return func() { testHookPivot = nil }
}

// CheckReducedCosts prices s's current basis under c from scratch and
// reports the first nonbasic variable that can move whose maintained
// reduced cost differs from the fresh one by more than
// rel·max(1, |fresh|). It leaves s untouched.
func CheckReducedCosts(s *Solver, c []float64, rel float64) error {
	y := make([]float64, s.m)
	for i, j := range s.basis {
		y[i] = c[j]
	}
	s.btran(y)
	for j, st := range s.status {
		if st == basic || s.lo[j] == s.hi[j] {
			continue
		}
		fresh := c[j]
		for _, e := range s.entries[j] {
			fresh -= y[e.Row] * e.Coef
		}
		if diff := math.Abs(s.d[j] - fresh); diff > rel*math.Max(1, math.Abs(fresh)) {
			return fmt.Errorf("variable %d: maintained reduced cost %v, fresh %v (off by %.3g)", j, s.d[j], fresh, diff)
		}
	}
	return nil
}

// HasRowCopy reports whether p holds the row-major copy of its entries
// that Validate builds.
func HasRowCopy(p *Problem) bool { return p.byRow != nil }

// SharesRowCopy reports whether a and b hold one and the same row-major
// copy of their entries.
func SharesRowCopy(a, b *Problem) bool { return a.byRow != nil && a.byRow == b.byRow }

// ColEntries returns column j's coefficients; the slice is the
// problem's own.
func (p *Problem) ColEntries(j int) []Entry { return p.cols[j].entries }

// RowBounds returns row i's activity bounds.
func (p *Problem) RowBounds(i int) (lo, hi float64) { return p.rows[i].lo, p.rows[i].hi }

// ColBounds returns column j's bounds.
func (p *Problem) ColBounds(j int) (lo, hi float64) { return p.cols[j].lo, p.cols[j].hi }

// Holds reports whether s holds p loaded, so that its next SolveFrom of
// p reloads only the difference.
func Holds(s *Solver, p *Problem) bool { return s.held == p && s.byRow == p.byRow }

// SameSolverState compares, by bit pattern, everything a solve leaves in
// a solver that a later one could read: the eta file, the basis order,
// the basic and nonbasic values, the statuses, the bounds, the reduced
// costs and the pivot row with the variables it reaches.
func SameSolverState(want, got *Solver) error {
	for _, c := range []struct {
		name      string
		want, got []int32
	}{
		{"etaRow", want.etaRow, got.etaRow},
		{"etaStart", want.etaStart, got.etaStart},
		{"etaIdx", want.etaIdx, got.etaIdx},
	} {
		if err := sameInt32(c.name, c.want, c.got); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		name      string
		want, got []float64
	}{
		{"etaPiv", want.etaPiv, got.etaPiv},
		{"etaVal", want.etaVal, got.etaVal},
		{"xb", want.xb, got.xb},
		{"xval", want.xval, got.xval},
		{"lo", want.lo, got.lo},
		{"hi", want.hi, got.hi},
		{"d", want.d, got.d},
		{"alpha", want.alpha, got.alpha},
	} {
		if err := sameFloats(c.name, c.want, c.got); err != nil {
			return err
		}
	}
	if !slices.Equal(want.basis, got.basis) {
		return fmt.Errorf("basis order %v, want %v", got.basis, want.basis)
	}
	if !slices.Equal(want.status, got.status) {
		return fmt.Errorf("statuses differ")
	}
	if !slices.Equal(want.reach, got.reach) {
		return fmt.Errorf("pivot row reach differs")
	}
	if want.updates != got.updates || want.updNNZ != got.updNNZ {
		return fmt.Errorf("update counts %d/%d, want %d/%d", got.updates, got.updNNZ, want.updates, want.updNNZ)
	}
	return nil
}

// WithLeadingRows returns a copy of p extended by len(lo) leading rows:
// row i has activity bounds [lo[i], hi[i]] and column j enters it with
// coefficient a[i][j] when that is nonzero. p's rows follow in order,
// and the copy's objective is obj.
func WithLeadingRows(p *Problem, lo, hi []float64, a [][]float64, obj []float64) *Problem {
	k := len(lo)
	cp := p.Clone()
	cp.rows = make([]rowBounds, 0, k+len(p.rows))
	for i := range lo {
		cp.rows = append(cp.rows, rowBounds{lo: lo[i], hi: hi[i]})
	}
	cp.rows = append(cp.rows, p.rows...)
	for j := range cp.cols {
		es := make([]Entry, 0, k+len(cp.cols[j].entries))
		for i := range a {
			if c := a[i][j]; c != 0 {
				es = append(es, Entry{Row: i, Coef: c})
			}
		}
		for _, e := range cp.cols[j].entries {
			es = append(es, Entry{Row: e.Row + k, Coef: e.Coef})
		}
		cp.cols[j].entries = es
		cp.cols[j].obj = obj[j]
	}
	cp.byRow = nil
	return cp
}

// CopiedSnapshot is Snapshot always whole, with the artificial signs
// read back out of the solver, never shared with the basis it was loaded
// from.
func CopiedSnapshot(s *Solver) *Basis {
	base := s.base
	s.base = nil
	b := s.snapshot()
	s.base = base
	b.asign = make([]int8, s.m)
	for i := range b.asign {
		b.asign[i] = int8(s.single[s.m+i].Coef)
	}
	return b
}

// Taken is what the snapshot hook reports of one Snapshot call.
type Taken struct {
	// Whole is Snap's basis as a whole snapshot (CopiedSnapshot).
	Snap, Whole *Basis
	// Load is how the solve that ended at Snap started: "cold" (a cold
	// solve, a fallback included), "prepended" (a snapshot of a program
	// the problem extends by leading rows) or "warm" (a snapshot of the
	// problem's own shape).
	Load string
	// Problem and Fixes are the problem and fixes of a warm solve, which
	// Snap can be loaded back into.
	Problem *Problem
	Fixes   []Fix
}

// SetSnapshotHook calls f with every snapshot any solver takes, and
// returns the function that removes it.
func SetSnapshotHook(f func(Taken)) (restore func()) {
	testHookSnapshot = func(s *Solver, b *Basis) {
		t := Taken{Snap: b, Whole: CopiedSnapshot(s), Load: "warm"}
		switch {
		case s.held == nil:
			t.Load = "cold"
		case s.asign == nil:
			t.Load = "prepended"
		default:
			t.Problem, t.Fixes = s.held, slices.Clone(s.fixed)
		}
		f(t)
	}
	return func() { testHookSnapshot = nil }
}

// LoadSnapshot loads p and from into s, each of fixes pinning its
// column, as SolveFrom does before it refactorizes: a delta is flattened
// again even when s flattened it last.
func (s *Solver) LoadSnapshot(p *Problem, from *Basis, fixes ...Fix) bool {
	s.flat = nil
	_, ok := s.loadBasis(p, from, fixes)
	return ok
}

// Flatten returns b's statuses and basis order in new slices: a whole
// snapshot's own, and a delta's applied to its parent's, flattened.
func Flatten(b *Basis) (status []int8, basis []int32) {
	if b.parent == nil {
		status = make([]int8, len(b.status))
		for j, st := range b.status {
			status[j] = int8(st)
		}
		return status, slices.Clone(b.basis)
	}
	status, basis = Flatten(b.parent)
	for _, v := range b.basis[:b.nstat] {
		status[v>>2] = int8(v & 3)
	}
	for t := b.nstat; t < len(b.basis); t += 2 {
		basis[b.basis[t]] = b.basis[t+1]
	}
	return status, basis
}

// IsDelta reports whether b stores its changes against a parent rather
// than every status and the whole basis order.
func IsDelta(b *Basis) bool { return b.parent != nil }

// SameBasis compares two snapshots by content, whole or delta: every
// status, the basis order and the artificial signs.
func SameBasis(want, got *Basis) error {
	ws, wb := Flatten(want)
	gs, gb := Flatten(got)
	if !slices.Equal(ws, gs) {
		return fmt.Errorf("snapshot statuses differ")
	}
	if err := sameInt32("snapshot basis", wb, gb); err != nil {
		return err
	}
	if !slices.Equal(want.asign, got.asign) {
		return fmt.Errorf("snapshot artificial signs %v, want %v", got.asign, want.asign)
	}
	return nil
}
