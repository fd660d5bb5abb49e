package lp

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
