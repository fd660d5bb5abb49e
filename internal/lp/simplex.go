package lp

import (
	"math"
	"math/bits"
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
// scratch buffer between calls: branch and bound (internal/bip) solves
// thousands of same-shaped relaxations, and reusing the storage removes
// all per-solve and per-iteration allocation from that hot path.
//
// The basis inverse is kept in product form as an eta file — a sequence
// of Gauss-Jordan elimination columns — rather than as a dense matrix.
// Applying B⁻¹ (ftran) or its transpose (btran) costs O(nnz of the eta
// file), which for the advisor's sparse ±1 constraint matrices is near
// linear in m instead of the dense O(m²) per iteration. The file is
// rebuilt from the basis columns (refactor) on a fixed cadence and
// whenever update fill grows past a budget.
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

	y, w, res []float64 // per-iteration multiplier/direction/residual scratch
	rho       []float64 // dual simplex row scratch
	phase1    []float64
	isBasic   []bool

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

	pivots   int
	degens   int
	maxIters int

	// loaded marks the factorization SolveFrom last loaded, while the
	// eta file still starts with it (see loadMark).
	loaded loadMark

	stats SolverStats
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

// SolverStats accumulates work counters across every solve call on one
// Solver. All counts are pure functions of the problems solved, so
// summing them across per-worker solvers yields the same totals at any
// worker count.
type SolverStats struct {
	// Solves is the number of solve requests (Solve, SolveFrom and
	// SolvePrepended): ColdSolves + WarmStarts + PrimalWarmStarts +
	// Fallbacks.
	Solves int64
	// ColdSolves counts Solve calls, which start from the all-artificial
	// basis by request.
	ColdSolves int64
	// Pivots is the total number of simplex pivots, primal and dual.
	Pivots int64
	// DegeneratePivots counts pivots with (near-)zero step length.
	DegeneratePivots int64
	// Refactors counts eta-file rebuilds from the basis columns,
	// including the initial basis load of each solve that did not reuse
	// the previous load's.
	Refactors int64
	// FactorReuses counts SolveFrom calls that found the snapshot's
	// factorization still at the head of the eta file and skipped the
	// load-time refactorization.
	FactorReuses int64
	// RefactorNNZ counts the off-pivot nonzeros refactorizations wrote
	// into the eta file: the fill a better elimination order would
	// have to reduce.
	RefactorNNZ int64
	// WarmStarts counts SolveFrom calls that completed on the
	// warm-started dual simplex path, whatever the answer.
	WarmStarts int64
	// WarmInfeasible counts the WarmStarts whose answer was the dual
	// simplex's proof that the problem is infeasible.
	WarmInfeasible int64
	// DualPivots counts pivots taken by the dual simplex.
	DualPivots int64
	// PrimalWarmStarts counts SolvePrepended calls that completed on the
	// primal simplex path from the extended snapshot, whatever the
	// answer.
	PrimalWarmStarts int64
	// Fallbacks counts SolveFrom and SolvePrepended calls that abandoned
	// the warm start (unusable snapshot, a primal-infeasible load or
	// numerical trouble) and re-solved cold.
	Fallbacks int64
}

// Add accumulates another stats value, for aggregating per-worker
// solvers.
func (s *SolverStats) Add(o SolverStats) {
	s.Solves += o.Solves
	s.ColdSolves += o.ColdSolves
	s.Pivots += o.Pivots
	s.DegeneratePivots += o.DegeneratePivots
	s.Refactors += o.Refactors
	s.FactorReuses += o.FactorReuses
	s.RefactorNNZ += o.RefactorNNZ
	s.WarmStarts += o.WarmStarts
	s.WarmInfeasible += o.WarmInfeasible
	s.DualPivots += o.DualPivots
	s.PrimalWarmStarts += o.PrimalWarmStarts
	s.Fallbacks += o.Fallbacks
}

// Stats returns the cumulative work counters for this solver.
func (s *Solver) Stats() SolverStats { return s.stats }

// NewSolver returns an empty solver; its buffers grow to fit the first
// problem solved and are reused afterwards.
func NewSolver() *Solver { return &Solver{} }

// growF returns s resized to n, zeroed, reusing capacity when possible.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growI32 returns s resized to n, zeroed, reusing capacity when
// possible.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// prepare sizes and initializes the solver's state for one problem. It
// leaves the eta file alone: every path into a solve either rebuilds it
// (refactor) or restores it (SolveFrom's factorization reuse).
func (s *Solver) prepare(p *Problem) {
	m, n := len(p.rows), len(p.cols)
	s.m, s.n = m, n
	total := n + m + m // structural + slack + artificial
	s.obj = growF(s.obj, total)
	s.lo = growF(s.lo, total)
	s.hi = growF(s.hi, total)
	s.xval = growF(s.xval, total)
	s.xb = growF(s.xb, m)
	s.y = growF(s.y, m)
	s.w = growF(s.w, m)
	s.res = growF(s.res, m)
	s.rho = growF(s.rho, m)
	s.phase1 = growF(s.phase1, total)
	if cap(s.entries) < total {
		s.entries = make([][]Entry, total)
	} else {
		s.entries = s.entries[:total]
	}
	if cap(s.status) < total {
		s.status = make([]varStatus, total)
	} else {
		s.status = s.status[:total]
		for i := range s.status {
			s.status[i] = atLower
		}
	}
	if cap(s.basis) < m {
		s.basis = make([]int, m)
		s.newBasis = make([]int, m)
	} else {
		s.basis = s.basis[:m]
		s.newBasis = s.newBasis[:m]
	}
	if cap(s.isBasic) < total {
		s.isBasic = make([]bool, total)
	} else {
		s.isBasic = s.isBasic[:total]
	}
	if cap(s.single) < 2*m {
		s.single = make([]Entry, 2*m)
	} else {
		s.single = s.single[:2*m]
	}
	s.rowStart = growI32(s.rowStart, m+1)
	s.rowFill = growI32(s.rowFill, m)
	s.colCnt = growI32(s.colCnt, m)
	s.posRow = growI32(s.posRow, m)
	s.etaAt = growI32(s.etaAt, m)
	if cap(s.colDone) < m {
		s.colDone = make([]bool, m)
		s.pivoted = make([]bool, m)
	} else {
		s.colDone = s.colDone[:m]
		s.pivoted = s.pivoted[:m]
	}
	if words := (m + 63) / 64; cap(s.touched) < words {
		s.touched = make([]uint64, words)
	} else {
		s.touched = s.touched[:words]
	}
	s.fillMax = 16*m + 2048
	s.pivots, s.degens = 0, 0
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

// Solve runs the two-phase bounded revised simplex method on p, reusing
// the solver's buffers.
func (s *Solver) Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.stats.Solves++
	s.stats.ColdSolves++
	return s.solveCold(p)
}

// solveCold runs the standard two-phase solve from the all-artificial
// starting basis.
func (s *Solver) solveCold(p *Problem) (*Solution, error) {
	s.prepare(p)
	m, n := s.m, s.n

	for j, c := range p.cols {
		s.lo[j], s.hi[j] = c.lo, c.hi
		s.entries[j] = c.entries
	}
	// Slack variable for row i: a·x + s_i = 0 with s_i in [-hi, -lo].
	for i, r := range p.rows {
		j := n + i
		s.lo[j], s.hi[j] = -r.hi, -r.lo
		s.single[i] = Entry{Row: i, Coef: 1}
		s.entries[j] = s.single[i : i+1]
	}

	// Nonbasic structural and slack variables start at a finite bound.
	for j := 0; j < n+m; j++ {
		s.status[j], s.xval[j] = startBound(s.lo[j], s.hi[j])
	}

	// Residuals determine the artificial columns' signs: artificial i
	// has column sign_i * e_i so that it starts at the nonnegative
	// value |res_i|.
	res := s.res
	for j := 0; j < n+m; j++ {
		if s.xval[j] == 0 {
			continue
		}
		for _, e := range s.entries[j] {
			res[e.Row] += e.Coef * s.xval[j]
		}
	}
	for i := 0; i < m; i++ {
		j := n + m + i
		sign := 1.0
		if res[i] > 0 {
			sign = -1
		}
		s.single[m+i] = Entry{Row: i, Coef: sign}
		s.entries[j] = s.single[m+i : m+i+1]
		s.lo[j], s.hi[j] = 0, math.Inf(1)
		s.status[j] = basic
		s.basis[i] = j
		res[i] = 0
	}
	// The all-artificial basis refactors into m trivial singleton etas
	// and recomputes xb, sharing the general load path.
	if !s.refactor() {
		return &Solution{Status: IterationLimit}, nil
	}

	// Phase 1: minimize the sum of artificial variables.
	phase1 := s.phase1
	needPhase1 := false
	for i := 0; i < m; i++ {
		phase1[n+m+i] = 1
		if s.xb[i] > feasTol {
			needPhase1 = true
		}
	}
	if needPhase1 {
		st := s.iterate(phase1)
		if st == IterationLimit {
			return &Solution{Status: IterationLimit}, nil
		}
		if s.objectiveOf(phase1) > 1e-6 {
			return &Solution{Status: Infeasible}, nil
		}
	}
	// Pin artificials to zero for phase 2.
	for i := 0; i < m; i++ {
		s.hi[n+m+i] = 0
	}

	// Phase 2: minimize the real objective.
	for j, c := range p.cols {
		s.obj[j] = c.obj
	}
	st := s.iterate(s.obj)
	switch st {
	case Unbounded:
		return &Solution{Status: Unbounded}, nil
	case IterationLimit:
		return &Solution{Status: IterationLimit}, nil
	}
	return s.extract(p), nil
}

// extract reads the optimal point back out of the solver state.
func (s *Solver) extract(p *Problem) *Solution {
	sol := &Solution{Status: Optimal, X: make([]float64, s.n)}
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

// iterate runs primal simplex iterations for the given objective until
// optimality, unboundedness, or the iteration limit.
func (s *Solver) iterate(c []float64) Status {
	iters := 0
	for {
		iters++
		if iters > s.maxIters {
			return IterationLimit
		}

		// Simplex multipliers y = c_B · B⁻¹, via one btran.
		y := s.y
		for k := range y {
			y[k] = 0
		}
		for i := 0; i < s.m; i++ {
			y[i] = c[s.basis[i]]
		}
		s.btran(y)

		// Pricing: choose the entering variable.
		entering := -1
		enterDir := 1.0
		best := tol
		bland := s.degens >= blandAfter
		for j := 0; j < len(s.xval); j++ {
			st := s.status[j]
			if st == basic {
				continue
			}
			if s.lo[j] == s.hi[j] {
				continue // fixed variable
			}
			d := c[j]
			for _, e := range s.entries[j] {
				d -= y[e.Row] * e.Coef
			}
			var viol float64
			var dir float64
			if st == atLower && d < -tol {
				viol, dir = -d, 1
			} else if st == atUpper && d > tol {
				viol, dir = d, -1
			} else {
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
			return Optimal
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
			s.stats.DegeneratePivots++
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

		// Pivot: replace basis[leaving] with the entering variable and
		// append the eta recording this basis change.
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
		s.stats.Pivots++
		if s.updates >= refactorEvery || s.updNNZ > s.fillMax {
			if !s.refactor() {
				return IterationLimit
			}
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
	s.stats.Refactors++
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
	s.rowPos = growI32(s.rowPos, nnz)
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
	first := len(s.etaIdx)
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
	s.stats.RefactorNNZ += int64(len(s.etaIdx) - first)
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
