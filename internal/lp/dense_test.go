package lp

import (
	"math"
)

// denseRefactorEvery bounds the number of in-place dense basis inverse
// updates between full refactorizations.
const denseRefactorEvery = 400

// denseSolver is the original dense-basis-inverse implementation of the
// two-phase bounded revised simplex method. It is retained verbatim as
// the reference oracle for differential tests and the FuzzSimplex
// target: the production Solver keeps its basis as a sparse eta file,
// and every change to that fast path is checked against this slow,
// simple implementation on randomized problems.
type denseSolver struct {
	m int // rows
	n int // structural columns

	// Column data for structural + slack + artificial variables.
	obj     []float64
	lo, hi  []float64
	entries [][]Entry

	status []varStatus
	xval   []float64 // current value per variable (nonbasic: at bound)

	basis []int       // variable basic at each row position
	binv  [][]float64 // dense basis inverse (rows backed by invData)
	xb    []float64   // basic variable values by row position

	// invData double-buffers the basis inverse storage: refactorization
	// rebuilds into the inactive buffer and swaps.
	invData [2][]float64
	invRows [2][][]float64
	invCur  int
	bData   []float64 // basis matrix scratch for refactorization
	bRows   [][]float64

	single []Entry // backing for slack/artificial single-entry columns

	y, w, res []float64 // per-iteration multiplier/direction/residual scratch
	phase1    []float64
	isBasic   []bool

	pivots   int
	degens   int
	maxIters int
}

// solveDense runs the reference dense-inverse simplex implementation;
// export_test.go hands it to the differential tests as SolveDense.
func solveDense(p *Problem) (*Solution, error) {
	return (&denseSolver{}).solve(p)
}

// prepare sizes and initializes the solver's state for one problem.
func (s *denseSolver) prepare(p *Problem) {
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
	s.phase1 = grow(s.phase1, total)
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
	} else {
		s.basis = s.basis[:m]
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
	for buf := 0; buf < 2; buf++ {
		s.invData[buf] = grow(s.invData[buf], m*m)
		if cap(s.invRows[buf]) < m {
			s.invRows[buf] = make([][]float64, m)
		} else {
			s.invRows[buf] = s.invRows[buf][:m]
		}
	}
	s.bData = grow(s.bData, m*m)
	if cap(s.bRows) < m {
		s.bRows = make([][]float64, m)
	} else {
		s.bRows = s.bRows[:m]
	}
	s.invCur = 0
	s.pivots, s.degens = 0, 0
	s.maxIters = 2000 + 40*(m+n)
}

// solve runs the two-phase bounded revised simplex method on p.
func (s *denseSolver) solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
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

	// Residuals determine the artificial columns' signs and starting
	// values: artificial i has column sign_i * e_i and value |res_i|.
	res := s.res
	for j := 0; j < n+m; j++ {
		if s.xval[j] == 0 {
			continue
		}
		for _, e := range s.entries[j] {
			res[e.Row] += e.Coef * s.xval[j]
		}
	}
	binv := s.invRows[s.invCur]
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
		s.xb[i] = math.Abs(res[i])
		s.xval[j] = s.xb[i]
		row := s.invData[s.invCur][i*m : (i+1)*m]
		for k := range row {
			row[k] = 0
		}
		row[i] = sign
		binv[i] = row
	}
	s.binv = binv

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

	sol := &Solution{Status: Optimal, X: make([]float64, n)}
	for j := 0; j < n; j++ {
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
	return sol, nil
}

// objectiveOf evaluates an objective vector at the current point.
func (s *denseSolver) objectiveOf(c []float64) float64 {
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
func (s *denseSolver) iterate(c []float64) Status {
	iters := 0
	for {
		iters++
		if iters > s.maxIters {
			return IterationLimit
		}

		// Simplex multipliers y = c_B · B⁻¹.
		y := s.y
		for k := range y {
			y[k] = 0
		}
		for i := 0; i < s.m; i++ {
			cb := c[s.basis[i]]
			if cb == 0 {
				continue
			}
			row := s.binv[i]
			for k := 0; k < s.m; k++ {
				y[k] += cb * row[k]
			}
		}

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
			return Optimal
		}

		// Direction w = B⁻¹ A_entering.
		w := s.w
		for k := range w {
			w[k] = 0
		}
		for _, e := range s.entries[entering] {
			coef := e.Coef
			for i := 0; i < s.m; i++ {
				w[i] += s.binv[i][e.Row] * coef
			}
		}

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
		} else {
			s.degens = 0
		}

		// Move the entering variable and update basic values.
		newEnterVal := s.xval[entering] + enterDir*tMax
		for i := 0; i < s.m; i++ {
			s.xb[i] -= enterDir * tMax * w[i]
			s.xval[s.basis[i]] = s.xb[i]
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

		// Pivot: replace basis[leaving] with the entering variable.
		out := s.basis[leaving]
		s.status[out] = leaveAt
		if leaveAt == atUpper {
			s.xval[out] = s.hi[out]
		} else {
			s.xval[out] = s.lo[out]
		}

		pivot := w[leaving]
		prow := s.binv[leaving]
		inv := 1 / pivot
		for k := 0; k < s.m; k++ {
			prow[k] *= inv
		}
		for i := 0; i < s.m; i++ {
			if i == leaving || w[i] == 0 {
				continue
			}
			f := w[i]
			row := s.binv[i]
			for k := 0; k < s.m; k++ {
				row[k] -= f * prow[k]
			}
		}
		s.basis[leaving] = entering
		s.status[entering] = basic
		s.xb[leaving] = newEnterVal
		s.xval[entering] = newEnterVal

		s.pivots++
		if s.pivots%denseRefactorEvery == 0 {
			if !s.refactor() {
				return IterationLimit
			}
		}
	}
}

// refactor rebuilds the basis inverse from scratch by Gauss-Jordan
// elimination with partial pivoting and recomputes the basic values,
// clearing accumulated floating point drift. It reports false when the
// basis has become numerically singular. The rebuild targets the
// inactive half of the double-buffered inverse storage, then swaps.
func (s *denseSolver) refactor() bool {
	m := s.m
	// Assemble the basis matrix and an identity in the scratch buffers.
	next := 1 - s.invCur
	b := s.bRows
	inv := s.invRows[next]
	for i := 0; i < m; i++ {
		brow := s.bData[i*m : (i+1)*m]
		irow := s.invData[next][i*m : (i+1)*m]
		for k := range brow {
			brow[k] = 0
			irow[k] = 0
		}
		irow[i] = 1
		b[i] = brow
		inv[i] = irow
	}
	for pos, j := range s.basis {
		for _, e := range s.entries[j] {
			b[e.Row][pos] = e.Coef
		}
	}
	// Invert.
	for col := 0; col < m; col++ {
		pr := col
		for r := col + 1; r < m; r++ {
			if math.Abs(b[r][col]) > math.Abs(b[pr][col]) {
				pr = r
			}
		}
		if math.Abs(b[pr][col]) < 1e-11 {
			return false
		}
		b[col], b[pr] = b[pr], b[col]
		inv[col], inv[pr] = inv[pr], inv[col]
		piv := 1 / b[col][col]
		for k := 0; k < m; k++ {
			b[col][k] *= piv
			inv[col][k] *= piv
		}
		for r := 0; r < m; r++ {
			if r == col || b[r][col] == 0 {
				continue
			}
			f := b[r][col]
			for k := 0; k < m; k++ {
				b[r][k] -= f * b[col][k]
				inv[r][k] -= f * inv[col][k]
			}
		}
	}
	s.invCur = next
	s.binv = inv

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
	for i := 0; i < m; i++ {
		v := 0.0
		for k := 0; k < m; k++ {
			v += s.binv[i][k] * res[k]
		}
		s.xb[i] = v
		s.xval[s.basis[i]] = v
	}
	return true
}
