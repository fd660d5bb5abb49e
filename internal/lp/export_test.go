package lp

import (
	"fmt"
	"slices"
)

// Solve runs the two-phase bounded revised simplex method on a fresh
// solver. Production always holds a Solver (bip keeps one per worker);
// the tests solve one problem at a time.
func (p *Problem) Solve() (*Solution, error) { return NewSolver().Solve(p) }

// SetObj changes a column's objective coefficient.
func (p *Problem) SetObj(col int, obj float64) { p.cols[col].obj = obj }

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

// ColEntries returns column j's coefficients; the slice is the
// problem's own.
func (p *Problem) ColEntries(j int) []Entry { return p.cols[j].entries }

// SameSolverState compares, by bit pattern, everything a solve leaves in
// a solver that a later one could read: the eta file, the basis order,
// the basic and nonbasic values and the statuses.
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
	cp.entriesOK = false
	return cp
}
