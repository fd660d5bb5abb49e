package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nose/internal/obs"
)

// refactorOracle is the refactorization as it stood before eliminate
// replaced the body of process: per basis column a whole-file ftran, an
// arg-max scan over every row, appendEta's scan over every row and a
// full clear of w. It is kept verbatim as the reference the production
// refactor must reproduce bit for bit (TestRefactorMatchesOracle).
func (s *Solver) refactorOracle() bool {
	s.c.refactors.Inc()
	m := s.m
	s.etaRow = s.etaRow[:0]
	s.etaPiv = s.etaPiv[:0]
	s.etaIdx = s.etaIdx[:0]
	s.etaVal = s.etaVal[:0]
	s.etaStart = append(s.etaStart[:0], 0)
	s.updates, s.updNNZ = 0, 0

	// Row → basis-position adjacency (CSR) over the original column
	// patterns, used to maintain unpivoted-row counts during peeling.
	rowStart := s.rowStart
	for i := range rowStart {
		rowStart[i] = 0
	}
	nnz := 0
	for k := 0; k < m; k++ {
		es := s.entries[s.basis[k]]
		s.colCnt[k] = int32(len(es))
		nnz += len(es)
		for _, e := range es {
			rowStart[e.Row+1]++
		}
	}
	for i := 0; i < m; i++ {
		rowStart[i+1] += rowStart[i]
	}
	s.rowPos = grow(s.rowPos, nnz)
	fill := s.rowFill
	for i := range fill {
		fill[i] = 0
	}
	for k := 0; k < m; k++ {
		for _, e := range s.entries[s.basis[k]] {
			s.rowPos[rowStart[e.Row]+fill[e.Row]] = int32(k)
			fill[e.Row]++
		}
	}

	for i := 0; i < m; i++ {
		s.pivoted[i] = false
		s.colDone[i] = false
		s.posRow[i] = -1
	}
	w := s.w
	for i := range w {
		w[i] = 0
	}

	// process eliminates basis position k: transform its column by the
	// etas so far, pivot on the largest unpivoted component, record the
	// eta, and update peeling counts.
	process := func(k int) bool {
		for _, e := range s.entries[s.basis[k]] {
			w[e.Row] += e.Coef
		}
		s.ftran(w)
		r, maxAbs := -1, pivTol
		for i := 0; i < m; i++ {
			if s.pivoted[i] {
				continue
			}
			if a := math.Abs(w[i]); a > maxAbs {
				r, maxAbs = i, a
			}
		}
		if r < 0 {
			return false
		}
		s.appendEta(w, r)
		for i := range w {
			w[i] = 0
		}
		s.posRow[k] = int32(r)
		s.colDone[k] = true
		s.pivoted[r] = true
		for t := rowStart[r]; t < rowStart[r+1]; t++ {
			k2 := s.rowPos[t]
			s.colCnt[k2]--
			if s.colCnt[k2] == 1 && !s.colDone[k2] {
				s.queue = append(s.queue, k2)
			}
		}
		return true
	}

	// Triangular peel: columns whose pattern has one unpivoted row.
	s.queue = s.queue[:0]
	for k := 0; k < m; k++ {
		if s.colCnt[k] == 1 {
			s.queue = append(s.queue, int32(k))
		}
	}
	for head := 0; head < len(s.queue); head++ {
		k := int(s.queue[head])
		if s.colDone[k] {
			continue
		}
		if !process(k) {
			return false
		}
	}
	// Residual block in position order.
	for k := 0; k < m; k++ {
		if !s.colDone[k] {
			if !process(k) {
				return false
			}
		}
	}

	// Pivot rows permute basis positions: the variable processed at
	// position k is now basic at row posRow[k].
	for k := 0; k < m; k++ {
		s.newBasis[s.posRow[k]] = s.basis[k]
	}
	copy(s.basis, s.newBasis)

	// Recompute basic values: B x_B = -A_N x_N.
	res := s.res
	for k := range res {
		res[k] = 0
	}
	isBasic := s.isBasic
	for j := range isBasic {
		isBasic[j] = false
	}
	for _, j := range s.basis {
		isBasic[j] = true
	}
	for j := 0; j < len(s.xval); j++ {
		if isBasic[j] || s.xval[j] == 0 {
			continue
		}
		for _, e := range s.entries[j] {
			res[e.Row] -= e.Coef * s.xval[j]
		}
	}
	s.ftran(res)
	for i := 0; i < m; i++ {
		s.xb[i] = res[i]
		s.xval[s.basis[i]] = res[i]
		res[i] = 0
	}
	return true
}

// refactorInput returns a fresh solver holding a copy of everything a
// refactorization reads from s: the dimensions, the column patterns,
// the basis and the variable values.
func refactorInput(s *Solver) *Solver {
	c := NewSolver()
	c.prepare(&Problem{rows: make([]rowBounds, s.m), cols: make([]column, s.n)})
	copy(c.entries, s.entries)
	copy(c.basis, s.basis)
	copy(c.xval, s.xval)
	return c
}

// compareRefactor runs refactorOracle on want and refactor on got,
// which must hold the same input, and compares what they leave behind
// by bit pattern, not within a tolerance.
func compareRefactor(want, got *Solver) error {
	reg := obs.NewRegistry()
	got.SetObs(reg)
	wantOK, gotOK := want.refactorOracle(), got.refactor()
	if wantOK != gotOK {
		return fmt.Errorf("m=%d: oracle returned %v, refactor %v", want.m, wantOK, gotOK)
	}
	if err := sameInt32("etaRow", want.etaRow, got.etaRow); err != nil {
		return err
	}
	if err := sameInt32("etaStart", want.etaStart, got.etaStart); err != nil {
		return err
	}
	if err := sameInt32("etaIdx", want.etaIdx, got.etaIdx); err != nil {
		return err
	}
	if err := sameFloats("etaPiv", want.etaPiv, got.etaPiv); err != nil {
		return err
	}
	if err := sameFloats("etaVal", want.etaVal, got.etaVal); err != nil {
		return err
	}
	if !wantOK {
		return nil
	}
	for i := range want.basis {
		if want.basis[i] != got.basis[i] {
			return fmt.Errorf("m=%d: basis[%d] = %d, oracle %d", want.m, i, got.basis[i], want.basis[i])
		}
	}
	if err := sameFloats("xb", want.xb, got.xb); err != nil {
		return err
	}
	if err := sameFloats("xval", want.xval, got.xval); err != nil {
		return err
	}
	if counted := reg.Counter("lp.refactor_nnz").Value(); counted != int64(len(got.etaIdx)) {
		return fmt.Errorf("m=%d: lp.refactor_nnz grew by %d, eta file holds %d", got.m, counted, len(got.etaIdx))
	}
	return nil
}

func sameInt32(name string, want, got []int32) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d entries, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%s[%d] = %d, oracle %d", name, i, got[i], want[i])
		}
	}
	return nil
}

func sameFloats(name string, want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d entries, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("%s[%d] = %v, oracle %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// loadRandomBasis sizes s for m rows and fills it with a random sparse
// basis problem: structural columns of one to five entries (sometimes a
// repeated row, sometimes an exact zero), the slack and artificial
// singletons, m distinct basic variables and values for the rest. Most
// draws give every basis position its own row, so the basis is
// nonsingular unless coefficients conspire; the rest repeat a column or
// pair a slack with its artificial and are rank deficient. The same rng
// state loads the same problem into any solver.
func loadRandomBasis(s *Solver, rng *rand.Rand, m int) {
	n := m + rng.Intn(m+1)
	s.prepare(&Problem{rows: make([]rowBounds, m), cols: make([]column, n)})
	coef := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 1
		case 1:
			return -1
		case 2:
			return float64(rng.Intn(9)-4) / 2 // small dyadics, zero included
		default:
			return rng.NormFloat64()
		}
	}
	own := rng.Perm(m) // structural column j < m leans on row own[j]
	for j := 0; j < n; j++ {
		var es []Entry
		if j < m {
			c := coef()
			for c == 0 {
				c = coef()
			}
			es = append(es, Entry{Row: own[j], Coef: c})
		}
		// Mostly short columns, a few long ones: the long ones are what
		// fills the residual block.
		extra := rng.Intn(3)
		if rng.Intn(10) == 0 {
			extra = 1 + rng.Intn(5)
		}
		for ; extra > 0; extra-- {
			es = append(es, Entry{Row: rng.Intn(m), Coef: coef()})
		}
		rng.Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
		s.entries[j] = es
	}
	for i := 0; i < m; i++ {
		s.single[i] = Entry{Row: i, Coef: 1}
		s.entries[n+i] = s.single[i : i+1]
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		s.single[m+i] = Entry{Row: i, Coef: sign}
		s.entries[n+m+i] = s.single[m+i : m+i+1]
	}

	// Basis position k holds structural k, or the slack or artificial
	// of that column's own row.
	for k := 0; k < m; k++ {
		switch rng.Intn(5) {
		case 0:
			s.basis[k] = n + own[k]
		case 1:
			s.basis[k] = n + m + own[k]
		default:
			s.basis[k] = k
		}
	}
	switch rng.Intn(8) {
	case 0: // two basis positions hold copies of one column
		a, b := rng.Intn(m), rng.Intn(m)
		if a != b && s.basis[a] < m && s.basis[b] < m {
			s.entries[s.basis[b]] = s.entries[s.basis[a]]
		}
	case 1: // a slack and the artificial of the same row
		a, b := rng.Intn(m), rng.Intn(m)
		if a != b {
			s.basis[a], s.basis[b] = n+own[a], n+m+own[a]
		}
	}
	rng.Shuffle(m, func(a, b int) { s.basis[a], s.basis[b] = s.basis[b], s.basis[a] })

	for j := range s.xval {
		if rng.Intn(3) == 0 {
			s.xval[j] = float64(rng.Intn(5)) / 2
		}
	}
}

// TestRefactorMatchesOracleRandom checks refactor against the oracle on
// seeded random bases, reusing one solver on each side so that every
// trial also starts from whatever scratch state the previous one — of
// another size, possibly singular — left behind.
func TestRefactorMatchesOracleRandom(t *testing.T) {
	want, got := NewSolver(), NewSolver()
	sizes := rand.New(rand.NewSource(1))
	singular, regular := 0, 0
	for trial := 0; trial < 600; trial++ {
		m := 2 + sizes.Intn(399)
		if trial%3 == 2 {
			m = 2 + trial%7 // a small basis straight after a large one
		}
		loadRandomBasis(want, rand.New(rand.NewSource(int64(1000+trial))), m)
		loadRandomBasis(got, rand.New(rand.NewSource(int64(1000+trial))), m)
		if err := compareRefactor(want, got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got.etaRow) == m {
			regular++
		} else {
			singular++
		}
	}
	if singular < 30 || regular < 300 {
		t.Errorf("%d singular and %d nonsingular bases; the generator should produce plenty of both", singular, regular)
	}
}
