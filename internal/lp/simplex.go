package lp

import (
	"fmt"
	"math"
	"math/bits"

	"nose/internal/obs"
)

const (
	// tol is the general numerical tolerance for reduced costs and
	// pivot elements.
	tol = 1e-7
	// feasTol is the bound-violation tolerance.
	feasTol = 1e-7
	// refactorEvery bounds the number of eta-file updates between full
	// basis refactorizations.
	refactorEvery = 100
	// blandAfter is the number of consecutive degenerate pivots after
	// which pricing switches to Bland's rule to guarantee termination.
	blandAfter = 60
	// etaDropTol drops near-zero fill when recording an eta column;
	// periodic refactorization bounds the resulting drift.
	etaDropTol = 1e-12
	// pivTol is the smallest pivot magnitude accepted during
	// refactorization and dual simplex steps.
	pivTol = 1e-11
)

type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	basic
)

// Solver runs two-phase bounded revised simplex solves, retaining every
// buffer between calls: branch and bound (internal/bip) solves thousands
// of same-shaped relaxations. Its buffers grow to fit the largest
// problem it has solved and the longest eta file it has built; once they
// have, a solve allocates only its Solution, whose X is the solver's own
// storage, and a Snapshot only the statuses and basis order it copies,
// or their changes since the snapshot the solve was loaded from.
// Reset readies a solver for reuse on unrelated problems.
//
// The basis inverse is kept in product form as an eta file — a sequence
// of Gauss-Jordan elimination columns — rather than as a dense matrix.
// Applying B⁻¹ (ftran) or its transpose (btran) costs O(nnz of the eta
// file), which for the advisor's sparse ±1 constraint matrices is near
// linear in m instead of the dense O(m²) per iteration. The file is
// rebuilt from the basis columns (refactor) on a fixed cadence and
// whenever update fill grows past a budget.
//
// Every variable's reduced cost is kept across pivots rather than
// re-derived from the simplex multipliers on every one: a pivot updates
// it from the pivot row (updateDuals), which costs one btran of a unit
// vector and a walk over that row's nonzero rows of the problem's
// row-major entries (pivotRow). A full price — a btran of c_B and a pass
// over every column — runs only when a solve loads its basis, after each
// refactorization and once to confirm optimality.
//
// A Solver is not safe for concurrent use; create one per worker
// goroutine.
type Solver struct {
	m int // rows
	n int // structural columns

	// Column data for structural + slack + artificial variables.
	obj     []float64
	lo, hi  []float64
	entries [][]Entry

	status []varStatus
	xval   []float64 // current value per variable (nonbasic: at bound)

	basis []int     // variable basic at each row position
	xb    []float64 // basic variable values by row position

	// Eta file: eta k transforms a vector by x[r] /= piv followed by
	// x[i] -= val*x[r] for each off-pivot nonzero (i, val). Stored as
	// parallel arrays with CSR-style offsets into etaIdx/etaVal.
	etaRow   []int32
	etaPiv   []float64
	etaStart []int32
	etaIdx   []int32
	etaVal   []float64
	updates  int // etas appended since the last refactorization
	updNNZ   int // off-pivot nonzeros appended since then
	fillMax  int // update fill budget before a forced refactorization

	single []Entry // backing for slack/artificial single-entry columns
	// asign is the artificial signs of the basis the current solve was
	// installed from, which install copied into single unchanged; nil when
	// this solve chose its own (a cold solve, or a load that prepended
	// rows). Snapshot shares it instead of copying the signs out again.
	asign []int8

	x []float64 // the point extract reports, Solution.X

	y, w, res []float64 // multiplier/direction/residual scratch
	rho       []float64 // row r of B⁻¹, for the pivot row
	phase1    []float64
	isBasic   []bool

	// Reduced costs and the pivot row. d holds the reduced cost, under
	// the objective being minimized, of every nonbasic variable that can
	// move; its other entries are never read. fresh records that price
	// computed d and no pivot has moved it since. alpha holds row r of
	// B⁻¹A where reach marks it written, and is zero elsewhere between
	// pivots.
	d     []float64
	fresh bool
	alpha []float64
	reach []uint64
	byRow *rowMajor // the problem's row-major entries

	// Refactorization scratch.
	rowStart []int32 // CSR row → basis-position adjacency
	rowPos   []int32
	rowFill  []int32
	colCnt   []int32 // unpivoted-row counts per basis position
	posRow   []int32 // pivot row assigned to each basis position
	colDone  []bool
	pivoted  []bool
	queue    []int32
	newBasis []int
	etaAt    []int32  // row → refactor-phase eta pivoting on it, -1 if none
	touched  []uint64 // bitset of the rows of w written for one column
	heap     []int32  // pending eta indices, a binary min-heap

	degens   int // consecutive degenerate pivots, for Bland's rule
	maxIters int

	// pivots, dualPivots and degenerate tally the pivots of the SolveFrom
	// call in progress, which adds them to their counters as it returns:
	// a shared counter per pivot would cost the pivot loop an atomic add.
	pivots, dualPivots, degenerate int64

	// loaded marks the factorization SolveFrom last loaded, while the
	// eta file still starts with it (see loadMark).
	loaded loadMark
	// held is the problem install last loaded, while nothing but a warm
	// solve has run on it since, and fixed the fixes that load applied:
	// a SolveFrom of the same problem then reloads only what a solve
	// changes (see reload). prepare drops it.
	held  *Problem
	fixed []Fix

	// base is the snapshot the current solve loaded without prepending
	// rows, nil after a cold solve or one that prepended them: Snapshot
	// stores its basis as a delta against base. flat is the delta view
	// last flattened, into flatStatus and flatBasis, through stack.
	base, flat *Basis
	flatStatus []varStatus
	flatBasis  []int32
	stack      []*Basis

	c counters
}

// loadMark remembers the one factorization a solver may reuse: the
// extent of the eta file right after SolveFrom refactorized a snapshot's
// basis, and the basis order that refactorization left. Pivots only
// append to the eta file, so until the next refactorization the file
// still begins with those etas, and a second SolveFrom from the same
// snapshot on the same problem — the sibling of a branch and bound
// node — truncates back to the mark instead of refactorizing. The
// refactorization is a pure function of the basis order and the
// problem's columns, neither of which a bound fix touches, so the
// restored state is bit for bit what refactor would rebuild.
type loadMark struct {
	from  *Basis   // nil: nothing to reuse
	prob  *Problem // the problem the snapshot was loaded into
	etas  int      // len(etaRow) after the load-time refactor
	nnz   int      // len(etaIdx) after the load-time refactor
	basis []int    // basis order after that refactor's permutation
}

// counters are the lp.* counters SetObs bound, nil (counting nothing)
// until it has.
type counters struct {
	solves, coldSolves, warmStarts, warmInfeasible, fallbacks *obs.Counter
	pivots, phase1Pivots, degeneratePivots, dualPivots        *obs.Counter
	refactors, refactorNNZ, factorReuses, prices              *obs.Counter
}

// SetObs binds the solver's work counters to r's lp.* counters; a nil r
// binds none. Every solver bound to one registry adds into the same
// counters, and every count is a pure function of the problems solved,
// so the totals are the same however the solves are spread over
// solvers, and so at any worker count. The pivot counts are tallied in
// the solver and added when its SolveFrom call returns.
//
//   - lp.solves counts SolveFrom calls, the sum of lp.cold_solves,
//     lp.warm_starts and lp.warm_fallbacks.
//   - lp.cold_solves counts calls given no snapshot, which start from
//     the slack crash basis.
//   - lp.warm_starts counts calls that completed from the snapshot's
//     basis, whatever the answer: on the dual simplex path or, for a
//     program extended by leading rows, the primal one.
//   - lp.warm_infeasible counts the warm starts whose answer was the
//     dual simplex's proof that the problem is infeasible.
//   - lp.warm_fallbacks counts calls that abandoned the warm start (a
//     snapshot of the wrong shape, a primal-infeasible load of an
//     extended program or numerical trouble) and re-solved cold.
//   - lp.pivots counts simplex pivots, primal and dual; lp.dual_pivots
//     those the dual simplex took, lp.degenerate_pivots those with
//     (near-)zero step length, and lp.phase1_pivots those cold solves,
//     fallbacks included, spent driving artificials out before phase 2.
//   - lp.refactors counts eta-file rebuilds from the basis columns,
//     including the basis load of each call that did not reuse the
//     previous load's, and lp.refactor_nnz the off-pivot nonzeros they
//     wrote into the eta file: the fill a better elimination order would
//     have to reduce.
//   - lp.factor_reuses counts calls that found the snapshot's
//     factorization still at the head of the eta file and skipped the
//     load-time refactorization.
//   - lp.prices counts full pricing passes — a btran of the basic costs
//     and a pass over every column. A solve runs one when it loads its
//     basis or changes objective, one after each refactorization and one
//     to confirm optimality; every other pivot updates the reduced costs
//     from its pivot row.
func (s *Solver) SetObs(r *obs.Registry) {
	s.c = counters{
		solves:           r.Counter("lp.solves"),
		coldSolves:       r.Counter("lp.cold_solves"),
		warmStarts:       r.Counter("lp.warm_starts"),
		warmInfeasible:   r.Counter("lp.warm_infeasible"),
		fallbacks:        r.Counter("lp.warm_fallbacks"),
		pivots:           r.Counter("lp.pivots"),
		phase1Pivots:     r.Counter("lp.phase1_pivots"),
		degeneratePivots: r.Counter("lp.degenerate_pivots"),
		dualPivots:       r.Counter("lp.dual_pivots"),
		refactors:        r.Counter("lp.refactors"),
		refactorNNZ:      r.Counter("lp.refactor_nnz"),
		factorReuses:     r.Counter("lp.factor_reuses"),
		prices:           r.Counter("lp.prices"),
	}
}

// ReducedCosts returns the reduced cost of every structural column at
// the optimum the last solve on this solver reported: zero for a basic
// or fixed column, and for a nonbasic one the rate at which the
// objective rises as the column leaves its bound — non-negative at a
// lower bound, non-positive at an upper one. Every solve prices them
// from scratch before it accepts an optimum, so they carry no drift from
// the pivots before it. The slice is the solver's storage, valid until
// its next solve; it is meaningless after a solve that did not return
// Optimal.
func (s *Solver) ReducedCosts() []float64 { return s.d[:s.n] }

// Reset unbinds the work counters, drops the factorization marked for
// reuse and every reference to the last problem solved, and keeps the
// buffers: a reset solver solves exactly as a new one does, bit for bit
// and, once bound again, counter for counter, only without growing its
// storage again. Branch and bound pools its solvers across calls
// through it.
func (s *Solver) Reset() {
	s.c = counters{}
	s.loaded = loadMark{basis: s.loaded.basis[:0]}
	s.asign = nil
	s.byRow = nil
	s.held, s.fixed = nil, s.fixed[:0]
	s.base, s.flat = nil, nil
	clear(s.entries)
}

// NewSolver returns an empty solver; its buffers grow to fit the first
// problem solved and are reused afterwards.
func NewSolver() *Solver { return &Solver{} }

// grow returns s resized to n and zeroed, reusing its storage when it
// is large enough. New storage has an eighth to spare, so that a solver
// sized by one program also fits a slightly larger one solved after it:
// the advisor's phase 2 is its phase 1 with one row more, and a pooled
// solver carries its buffers from the one to the other.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	s = s[:n]
	clear(s)
	return s
}

// fit is grow for storage whose every element is written before it is
// read: its contents are left as they were.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	return s[:n]
}

// prepare sizes and initializes the solver's state for one problem. It
// leaves the eta file alone: every path into a solve either rebuilds it
// (refactor) or restores it (SolveFrom's factorization reuse).
func (s *Solver) prepare(p *Problem) {
	m, n := len(p.rows), len(p.cols)
	s.m, s.n = m, n
	total := n + m + m // structural + slack + artificial
	s.obj = grow(s.obj, total)
	s.lo = grow(s.lo, total)
	s.hi = grow(s.hi, total)
	s.xval = grow(s.xval, total)
	s.xb = grow(s.xb, m)
	s.y = grow(s.y, m)
	s.w = grow(s.w, m)
	s.res = grow(s.res, m)
	s.rho = grow(s.rho, m)
	s.phase1 = grow(s.phase1, total)
	s.d = grow(s.d, total)
	s.alpha = grow(s.alpha, total)
	s.fresh = false
	s.byRow = p.byRow
	s.held = nil
	s.entries = fit(s.entries, total)
	s.status = grow(s.status, total) // atLower
	s.basis = fit(s.basis, m)
	s.newBasis = fit(s.newBasis, m)
	s.isBasic = fit(s.isBasic, total)
	s.single = fit(s.single, 2*m)
	s.rowStart = grow(s.rowStart, m+1)
	s.rowFill = grow(s.rowFill, m)
	s.colCnt = grow(s.colCnt, m)
	s.posRow = grow(s.posRow, m)
	s.etaAt = grow(s.etaAt, m)
	s.colDone = fit(s.colDone, m)
	s.pivoted = fit(s.pivoted, m)
	s.touched = fit(s.touched, (m+63)/64)
	s.reach = grow(s.reach, (total+63)/64)
	s.fillMax = 16*m + 2048
	s.degens = 0
	s.maxIters = 2000 + 40*(m+n)
}

// ftran applies B⁻¹ in place: each eta divides the pivot component and
// subtracts the scaled off-pivot column. Etas whose pivot component is
// exactly zero are skipped, which keeps the cost proportional to the
// vector's fill rather than the file size.
func (s *Solver) ftran(x []float64) {
	etaRow, etaPiv, etaStart := s.etaRow, s.etaPiv, s.etaStart
	etaIdx, etaVal := s.etaIdx, s.etaVal
	for k := 0; k < len(etaRow); k++ {
		r := etaRow[k]
		xr := x[r]
		if xr == 0 {
			continue
		}
		xr /= etaPiv[k]
		x[r] = xr
		for t := etaStart[k]; t < etaStart[k+1]; t++ {
			x[etaIdx[t]] -= etaVal[t] * xr
		}
	}
}

// btran applies (B⁻¹)ᵀ in place by running the eta file backwards; each
// eta only changes the pivot component: y[r] = (y[r] - Σ val·y[i]) / piv.
func (s *Solver) btran(y []float64) {
	etaRow, etaPiv, etaStart := s.etaRow, s.etaPiv, s.etaStart
	etaIdx, etaVal := s.etaIdx, s.etaVal
	for k := len(etaRow) - 1; k >= 0; k-- {
		dot := 0.0
		for t := etaStart[k]; t < etaStart[k+1]; t++ {
			dot += etaVal[t] * y[etaIdx[t]]
		}
		r := etaRow[k]
		y[r] = (y[r] - dot) / etaPiv[k]
	}
}

// appendEta records the transformed column w with pivot row r as a new
// eta, dropping near-zero fill, and returns the off-pivot nonzero count.
func (s *Solver) appendEta(w []float64, r int) int {
	s.etaRow = append(s.etaRow, int32(r))
	s.etaPiv = append(s.etaPiv, w[r])
	nnz := 0
	for i, v := range w {
		if i == r || v == 0 {
			continue
		}
		if v < etaDropTol && v > -etaDropTol {
			continue
		}
		s.etaIdx = append(s.etaIdx, int32(i))
		s.etaVal = append(s.etaVal, v)
		nnz++
	}
	s.etaStart = append(s.etaStart, int32(len(s.etaIdx)))
	return nnz
}

// validate checks p, and that every fix names one of its columns.
func validate(p *Problem, fixes []Fix) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, f := range fixes {
		if f.Col < 0 || f.Col >= len(p.cols) {
			return fmt.Errorf("lp: fix of col %d of %d", f.Col, len(p.cols))
		}
	}
	return nil
}

// fix pins each fixed column's bounds at its value, over the problem's.
func (s *Solver) fix(fixes []Fix) {
	for _, f := range fixes {
		s.lo[f.Col], s.hi[f.Col] = f.Val, f.Val
	}
}

// load sizes the solver for p and loads its columns, each of fixes
// pinning its own, and one slack per row: a·x + s_i = 0 with s_i in
// [-hi, -lo]. The artificials are the caller's: solveCold's crash basis
// and install's snapshot each set them up their own way.
func (s *Solver) load(p *Problem, fixes []Fix) {
	s.prepare(p)
	n := s.n
	for j, c := range p.cols {
		s.lo[j], s.hi[j] = c.lo, c.hi
		s.entries[j] = c.entries
		s.obj[j] = c.obj
	}
	s.fix(fixes)
	for i, r := range p.rows {
		j := n + i
		s.lo[j], s.hi[j] = -r.hi, -r.lo
		s.single[i] = Entry{Row: i, Coef: 1}
		s.entries[j] = s.single[i : i+1]
	}
}

// solveCold runs the standard two-phase solve from a slack crash basis:
// every structural starts nonbasic at a finite bound, a row whose
// activity there already lies within its bounds starts on its slack,
// and only the rows that point violates start on an artificial.
func (s *Solver) solveCold(p *Problem, fixes []Fix) *Solution {
	s.load(p, fixes)
	s.asign, s.base = nil, nil
	m, n := s.m, s.n

	// Nonbasic structural variables start at a finite bound; res
	// accumulates each row's activity there.
	res := s.res
	for j := 0; j < n; j++ {
		s.status[j], s.xval[j] = startBound(s.lo[j], s.hi[j])
		if s.xval[j] == 0 {
			continue
		}
		for _, e := range s.entries[j] {
			res[e.Row] += e.Coef * s.xval[j]
		}
	}

	// A satisfied row starts on its slack, its artificial pinned at zero
	// under sign +1. A violated row's slack starts nonbasic at a finite
	// bound, and its artificial, basic, has column sign_i * e_i so that
	// it starts at the positive value |res_i|.
	for i, r := range p.rows {
		sl, j := n+i, n+m+i
		sign, hi := 1.0, math.Inf(1)
		if act := res[i]; act >= r.lo && act <= r.hi {
			s.status[sl] = basic
			s.basis[i] = sl
			hi = 0
		} else {
			s.status[sl], s.xval[sl] = startBound(s.lo[sl], s.hi[sl])
			if act+s.xval[sl] > 0 {
				sign = -1
			}
			s.status[j] = basic
			s.basis[i] = j
		}
		s.single[m+i] = Entry{Row: i, Coef: sign}
		s.entries[j] = s.single[m+i : m+i+1]
		s.lo[j], s.hi[j] = 0, hi
		res[i] = 0
	}
	// The crash basis refactors into m trivial singleton etas and
	// recomputes xb, sharing the general load path.
	if !s.refactor() {
		return &Solution{Status: IterationLimit}
	}

	// Phase 1: minimize the sum of artificial variables, needed only when
	// a basic one starts positive.
	phase1 := s.phase1
	needPhase1 := false
	for i := 0; i < m; i++ {
		phase1[n+m+i] = 1
		if s.basis[i] >= n+m && s.xb[i] > feasTol {
			needPhase1 = true
		}
	}
	if needPhase1 {
		before := s.pivots
		s.price(phase1)
		st := s.iterate(phase1, false)
		if st == Optimal && s.objectiveOf(phase1) > 1e-6 {
			// Confirm against fresh reduced costs before declaring the
			// program infeasible; a feasible end needs no confirmation.
			st = s.iterate(phase1, true)
		}
		s.c.phase1Pivots.Add(s.pivots - before)
		if st == IterationLimit {
			return &Solution{Status: IterationLimit}
		}
		if s.objectiveOf(phase1) > 1e-6 {
			return &Solution{Status: Infeasible}
		}
	}
	// Pin artificials to zero for phase 2.
	for i := 0; i < m; i++ {
		s.hi[n+m+i] = 0
	}

	// Phase 2: minimize the real objective.
	s.price(s.obj)
	st := s.iterate(s.obj, true)
	switch st {
	case Unbounded:
		return &Solution{Status: Unbounded}
	case IterationLimit:
		return &Solution{Status: IterationLimit}
	}
	return s.extract(p)
}

// extract reads the optimal point back out of the solver state, into
// the solver's own storage.
func (s *Solver) extract(p *Problem) *Solution {
	if cap(s.x) < s.n {
		s.x = make([]float64, s.n)
	}
	s.x = s.x[:s.n]
	sol := &Solution{Status: Optimal, X: s.x}
	for j := 0; j < s.n; j++ {
		v := s.xval[j]
		// Clamp tiny numerical noise back into bounds.
		if v < s.lo[j] {
			v = s.lo[j]
		}
		if v > s.hi[j] {
			v = s.hi[j]
		}
		sol.X[j] = v
		sol.Objective += p.cols[j].obj * v
	}
	return sol
}

// startBound picks the starting bound for a nonbasic variable.
func startBound(lo, hi float64) (varStatus, float64) {
	switch {
	case !math.IsInf(lo, -1):
		return atLower, lo
	case !math.IsInf(hi, 1):
		return atUpper, hi
	default:
		// Free variable: park at zero, treated as a lower bound of a
		// one-point interval for pivoting purposes.
		return atLower, 0
	}
}

// objectiveOf evaluates an objective vector at the current point.
func (s *Solver) objectiveOf(c []float64) float64 {
	total := 0.0
	for j, v := range s.xval {
		if c[j] != 0 && v != 0 {
			total += c[j] * v
		}
	}
	return total
}

// price recomputes every reduced cost from scratch: the simplex
// multipliers y = c_B·B⁻¹ by one btran, then d_j = c_j − y·a_j for each
// nonbasic variable that can move, and zero for the rest.
func (s *Solver) price(c []float64) {
	y := s.y
	for i, j := range s.basis {
		y[i] = c[j]
	}
	s.btran(y)
	for j := range s.d {
		if s.status[j] == basic || s.lo[j] == s.hi[j] {
			s.d[j] = 0
			continue
		}
		dj := c[j]
		for _, e := range s.entries[j] {
			dj -= y[e.Row] * e.Coef
		}
		s.d[j] = dj
	}
	s.fresh = true
	s.c.prices.Inc()
}

// pivotRow computes row r of B⁻¹A into alpha and marks the variables it
// writes in reach: ρ = e_r·B⁻¹ by one btran, then α_j = ρ·a_j summed
// over ρ's nonzero rows only, through the problem's row-major entries.
// Slack i and artificial i have the one entry (i, ±1), so they take ρ_i
// directly. updateDuals clears alpha and reach again; a solve that ends
// between the two leaves them to the next solve's prepare.
func (s *Solver) pivotRow(r int) {
	rho := s.rho
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	s.btran(rho)
	n, m := s.n, s.m
	alpha, reach, rows := s.alpha, s.reach, s.byRow
	for i, v := range rho {
		if v == 0 {
			continue
		}
		for t := rows.start[i]; t < rows.start[i+1]; t++ {
			j := rows.col[t]
			alpha[j] += v * rows.coef[t]
			reach[j>>6] |= 1 << (j & 63)
		}
		for _, j := range [2]int{n + i, n + m + i} {
			alpha[j] = v * s.entries[j][0].Coef
			reach[j>>6] |= 1 << (j & 63)
		}
	}
}

// updateDuals carries the reduced costs across the pivot that makes q
// basic at row r, with pivot element piv, from the row pivotRow left:
// d_j −= θ·α_rj with θ = d_q/piv for every nonbasic j the row reaches,
// the leaving variable takes −θ and q zero. It clears the row.
func (s *Solver) updateDuals(q, r int, piv float64) {
	d, alpha, reach := s.d, s.alpha, s.reach
	theta := d[q] / piv
	for wi, word := range reach {
		for ; word != 0; word &= word - 1 {
			j := wi<<6 | bits.TrailingZeros64(word)
			if s.status[j] != basic {
				d[j] -= theta * alpha[j]
			}
			alpha[j] = 0
		}
		reach[wi] = 0
	}
	d[s.basis[r]] = -theta
	d[q] = 0
	s.fresh = false
}

// testHookPivot, when a test sets it, sees the solver after every pivot,
// with the objective being minimized.
var testHookPivot func(s *Solver, c []float64)

// iterate runs primal simplex iterations for the given objective until
// optimality, unboundedness, or the iteration limit, starting from the
// reduced costs in d (the caller prices them). With confirm set, an
// optimum the maintained reduced costs show is re-priced from scratch
// before it is accepted, unless no pivot happened since the last price.
func (s *Solver) iterate(c []float64, confirm bool) Status {
	iters := 0
	for {
		iters++
		if iters > s.maxIters {
			return IterationLimit
		}

		// Pricing: choose the entering variable.
		entering := -1
		enterDir := 1.0
		best := tol
		bland := s.degens >= blandAfter
		for j, d := range s.d {
			// Whatever its status, a variable enters only with |d| above
			// best, which is tol until a candidate raises it (Bland's
			// rule takes the first candidate), so most are passed over on
			// one load.
			if d >= -best && d <= best {
				continue
			}
			st := s.status[j]
			if st == basic {
				continue
			}
			if s.lo[j] == s.hi[j] {
				continue // fixed variable
			}
			var viol float64
			var dir float64
			switch {
			case st == atLower && d < -tol:
				viol, dir = -d, 1
			case d > tol && (st == atUpper || math.IsInf(s.lo[j], -1)):
				// At its upper bound, or free and parked at zero.
				viol, dir = d, -1
			default:
				continue
			}
			if bland {
				entering, enterDir = j, dir
				break
			}
			if viol > best {
				best, entering, enterDir = viol, j, dir
			}
		}
		if entering == -1 {
			if !confirm || s.fresh {
				return Optimal
			}
			s.price(c)
			continue
		}

		// Direction w = B⁻¹ A_entering, via one ftran.
		w := s.w
		for k := range w {
			w[k] = 0
		}
		for _, e := range s.entries[entering] {
			w[e.Row] += e.Coef
		}
		s.ftran(w)

		// Ratio test: the entering variable moves by t ≥ 0 in
		// direction enterDir; basic variable i changes at rate
		// -enterDir * w[i].
		tMax := s.hi[entering] - s.lo[entering] // bound flip distance
		leaving := -1
		leaveAt := atLower
		for i := 0; i < s.m; i++ {
			rate := -enterDir * w[i]
			var t float64
			var hit varStatus
			switch {
			case rate > tol:
				hb := s.hi[s.basis[i]]
				if math.IsInf(hb, 1) {
					continue
				}
				t, hit = (hb-s.xb[i])/rate, atUpper
			case rate < -tol:
				lb := s.lo[s.basis[i]]
				if math.IsInf(lb, -1) {
					continue
				}
				t, hit = (lb-s.xb[i])/rate, atLower
			default:
				continue
			}
			// Strict improvement, or a tie broken toward the larger
			// pivot element for numerical stability.
			if t < tMax-1e-10 || (leaving >= 0 && t < tMax+1e-10 && math.Abs(w[i]) > math.Abs(w[leaving])) {
				tMax, leaving, leaveAt = t, i, hit
			}
		}
		if math.IsInf(tMax, 1) {
			return Unbounded
		}
		if tMax < 0 {
			tMax = 0
		}
		if tMax < tol {
			s.degens++
			s.degenerate++
		} else {
			s.degens = 0
		}

		// Move the entering variable and update basic values.
		newEnterVal := s.xval[entering] + enterDir*tMax
		if tMax != 0 {
			for i := 0; i < s.m; i++ {
				if w[i] == 0 {
					continue
				}
				s.xb[i] -= enterDir * tMax * w[i]
				s.xval[s.basis[i]] = s.xb[i]
			}
		}

		if leaving == -1 {
			// Bound flip: the entering variable crosses to its other
			// bound; the basis is unchanged.
			s.xval[entering] = newEnterVal
			if enterDir > 0 {
				s.status[entering] = atUpper
			} else {
				s.status[entering] = atLower
			}
			continue
		}

		// Pivot: carry the reduced costs across it from the pivot row,
		// replace basis[leaving] with the entering variable and append the
		// eta recording this basis change.
		s.pivotRow(leaving)
		s.updateDuals(entering, leaving, w[leaving])
		out := s.basis[leaving]
		s.status[out] = leaveAt
		if leaveAt == atUpper {
			s.xval[out] = s.hi[out]
		} else {
			s.xval[out] = s.lo[out]
		}
		s.updNNZ += s.appendEta(w, leaving)
		s.updates++
		s.basis[leaving] = entering
		s.status[entering] = basic
		s.xb[leaving] = newEnterVal
		s.xval[entering] = newEnterVal

		s.pivots++
		if s.updates >= refactorEvery || s.updNNZ > s.fillMax {
			if !s.refactor() {
				return IterationLimit
			}
			s.price(c)
		}
		if testHookPivot != nil {
			testHookPivot(s, c)
		}
	}
}

// testHookRefactor, when a test sets it, sees the solver at the top of
// every refactorization, before the eta file is reset.
var testHookRefactor func(*Solver)

// refactor rebuilds the eta file from the current basis columns and
// recomputes the basic values, clearing accumulated floating point
// drift and truncating update fill. It reports false when the basis has
// become numerically singular. Whatever factorization SolveFrom had
// marked for reuse is gone afterwards.
//
// Columns are processed in a sparsity-friendly order: repeatedly peel
// columns with a single remaining unpivoted row (the triangular part of
// the basis), then eliminate the residual block in position order. Each
// column is transformed by the etas recorded so far and pivots on its
// largest remaining component (eliminate), so the procedure is exactly
// Gauss-Jordan elimination with a sparsity-driven pivot order. Pivot
// rows permute the basis positions; basis and xb are remapped
// accordingly.
func (s *Solver) refactor() bool {
	if testHookRefactor != nil {
		testHookRefactor(s)
	}
	s.c.refactors.Inc()
	// The refactorization writes every eta into the emptied file.
	defer func() { s.c.refactorNNZ.Add(int64(len(s.etaIdx))) }()
	s.loaded.from = nil
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
		s.etaAt[i] = -1
		s.w[i] = 0
	}
	for i := range s.touched {
		s.touched[i] = 0
	}

	// process eliminates basis position k and updates peeling counts.
	process := func(k int) bool {
		r := s.eliminate(k)
		if r < 0 {
			return false
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
	s.computeBasics()
	return true
}

// computeBasics recomputes the basic values from the nonbasic ones and
// the current factorization: B x_B = -A_N x_N.
func (s *Solver) computeBasics() {
	m := s.m
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
}

// eliminate transforms the column at basis position k by the etas this
// refactorization has recorded so far, pivots it on its largest
// unpivoted component, records the eta and clears w. It returns the
// pivot row, or -1 when no component exceeds pivTol.
//
// It performs the float operations of a whole-file ftran, an arg-max
// over every row and appendEta, in their order, but only on the rows
// the column reaches. Refactor-phase etas pivot on distinct rows, so
// etaAt maps a row to the one eta that reads it; a row turns nonzero
// only from the column itself or from an applied eta's off-pivot list,
// so a min-heap holding the etaAt of every row written visits exactly
// the etas ftran would not skip, in file order. The rows written are
// kept as a bitset, a word per 64 rows: scanning it yields them in
// ascending order, which reproduces the dense scans' lowest-row
// tie-break and the order of etaIdx, hence btran's summation order.
func (s *Solver) eliminate(k int) int {
	w, etaAt, touched := s.w, s.etaAt, s.touched
	heap := s.heap[:0]
	for _, e := range s.entries[s.basis[k]] {
		i := int32(e.Row)
		w[i] += e.Coef
		if bit := uint64(1) << (i & 63); touched[i>>6]&bit == 0 {
			touched[i>>6] |= bit
			if at := etaAt[i]; at >= 0 {
				heap = heapPush(heap, at)
			}
		}
	}
	for len(heap) > 0 {
		var at int32
		at, heap = heapPop(heap)
		r := s.etaRow[at]
		xr := w[r]
		if xr == 0 {
			continue
		}
		xr /= s.etaPiv[at]
		w[r] = xr
		for t := s.etaStart[at]; t < s.etaStart[at+1]; t++ {
			i := s.etaIdx[t]
			w[i] -= s.etaVal[t] * xr
			if bit := uint64(1) << (i & 63); touched[i>>6]&bit == 0 {
				touched[i>>6] |= bit
				// An earlier eta has already passed this row at zero.
				if next := etaAt[i]; next > at {
					heap = heapPush(heap, next)
				}
			}
		}
	}
	s.heap = heap

	r, maxAbs := -1, pivTol
	for wi, word := range touched {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			if s.pivoted[i] {
				continue
			}
			if a := math.Abs(w[i]); a > maxAbs {
				r, maxAbs = i, a
			}
		}
	}
	if r < 0 {
		return -1 // w and touched stay dirty; refactor clears them on entry
	}
	piv := w[r]
	for wi, word := range touched {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			v := w[i]
			w[i] = 0
			if i == r || v == 0 || (v < etaDropTol && v > -etaDropTol) {
				continue
			}
			s.etaIdx = append(s.etaIdx, int32(i))
			s.etaVal = append(s.etaVal, v)
		}
		touched[wi] = 0
	}
	etaAt[r] = int32(len(s.etaRow))
	s.etaRow = append(s.etaRow, int32(r))
	s.etaPiv = append(s.etaPiv, piv)
	s.etaStart = append(s.etaStart, int32(len(s.etaIdx)))
	return r
}

// heapPush adds k to the binary min-heap h.
func heapPush(h []int32, k int32) []int32 {
	h = append(h, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= k {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	return h
}

// heapPop removes and returns the smallest element of the non-empty
// binary min-heap h.
func heapPop(h []int32) (int32, []int32) {
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) == 0 {
		return top, h
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[c] >= last {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top, h
}
