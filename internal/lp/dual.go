package lp

import (
	"math"
)

// Basis is an immutable snapshot of a solved problem's basis: the
// nonbasic status of every variable (structural, slack, and artificial)
// plus the basic variable at each row position. Branch and bound
// captures one per expanded node and warm-starts both children from it
// via SolveFrom. A Basis is safe to share across goroutines.
type Basis struct {
	status []varStatus
	basis  []int32
	// asign records each artificial column's sign, which the cold solve
	// chose from its starting residuals; warm starts must rebuild the
	// identical basis matrix.
	asign []int8
}

// Snapshot captures the current basis. It must be called directly after
// a Solve or SolveFrom on this solver that returned Optimal; the
// snapshot then warm-starts later solves of the same problem shape with
// modified column bounds.
func (s *Solver) Snapshot() *Basis {
	b := &Basis{
		status: append([]varStatus(nil), s.status...),
		basis:  make([]int32, s.m),
		asign:  make([]int8, s.m),
	}
	for i, j := range s.basis {
		b.basis[i] = int32(j)
	}
	for i := 0; i < s.m; i++ {
		b.asign[i] = int8(s.single[s.m+i].Coef)
	}
	return b
}

// SolveFrom solves p starting from a basis snapshot taken at the
// optimum of a problem identical to p except for column bounds. Such a
// basis stays dual feasible — bound changes never touch reduced costs —
// so the bounded dual simplex drives out the (typically one or two)
// primal bound violations in a handful of pivots instead of a full
// two-phase solve. Both phases of work are skipped entirely when the
// old optimum is still primal feasible.
//
// The result is a pure function of (p, from): any numerical trouble
// falls back deterministically to a cold Solve, so callers may use
// SolveFrom from any worker without affecting reproducibility. An
// unusable snapshot (nil or wrong shape) also falls back cold.
//
// A call that follows, on this solver, a SolveFrom of the same problem
// from the same snapshot skips the load-time refactorization when the
// earlier solve never refactorized again (see loadMark): the state it
// starts from is identical either way, only the work differs.
func (s *Solver) SolveFrom(p *Problem, from *Basis) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.stats.Solves++
	if k, ok := fits(p, from); !ok || k != 0 {
		s.stats.Fallbacks++
		return s.solveCold(p)
	}
	s.install(p, from, 0)
	if mark := &s.loaded; mark.from == from && mark.prob == p {
		s.etaRow = s.etaRow[:mark.etas]
		s.etaPiv = s.etaPiv[:mark.etas]
		s.etaStart = s.etaStart[:mark.etas+1]
		s.etaIdx = s.etaIdx[:mark.nnz]
		s.etaVal = s.etaVal[:mark.nnz]
		s.updates, s.updNNZ = 0, 0
		copy(s.basis, mark.basis)
		s.computeBasics()
		s.stats.FactorReuses++
	} else {
		if !s.refactor() {
			s.stats.Fallbacks++
			return s.solveCold(p)
		}
		mark.from, mark.prob = from, p
		mark.etas, mark.nnz = len(s.etaRow), len(s.etaIdx)
		mark.basis = append(mark.basis[:0], s.basis...)
	}

	switch s.dualIterate(s.obj) {
	case Infeasible:
		s.stats.WarmStarts++
		s.stats.WarmInfeasible++
		return &Solution{Status: Infeasible}, nil
	case IterationLimit:
		s.stats.Fallbacks++
		return s.solveCold(p)
	}
	// Primal cleanup certifies optimality (and mops up any dual
	// infeasibility introduced by tolerance drift); usually 0 pivots.
	st := s.iterate(s.obj)
	if st == IterationLimit {
		s.stats.Fallbacks++
		return s.solveCold(p)
	}
	s.stats.WarmStarts++
	if st == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}
	return s.extract(p), nil
}

// SolvePrepended solves p starting from the optimal basis of a program
// p extends: p's rows are k new rows followed by the old program's rows
// in order, where k is how many more rows p has than from, its columns
// are the old program's, with the same bounds and possibly entries on
// the new rows, and its objective is arbitrary. The old basis with each
// new row's slack basic is a basis of p. When its point satisfies the
// new rows and every bound to within feasTol — as phase 1's root
// relaxation satisfies the cost row that pins its own integer optimum in
// phase 2 — it is primal feasible, and primal simplex runs from it; only
// the new objective's pivots remain.
//
// Like SolveFrom the result is a pure function of (p, from): an
// unusable snapshot, a singular load, a primal-infeasible load or the
// iteration limit falls back deterministically to a cold solve, and is
// counted as a fallback.
func (s *Solver) SolvePrepended(p *Problem, from *Basis) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.stats.Solves++
	k, ok := fits(p, from)
	if !ok {
		s.stats.Fallbacks++
		return s.solveCold(p)
	}
	s.install(p, from, k)
	if !s.refactor() || !s.primalFeasible() {
		s.stats.Fallbacks++
		return s.solveCold(p)
	}
	st := s.iterate(s.obj)
	if st == IterationLimit {
		s.stats.Fallbacks++
		return s.solveCold(p)
	}
	s.stats.PrimalWarmStarts++
	if st == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}
	return s.extract(p), nil
}

// fits reports whether from has the shape of a basis of a program that
// p extends by k ≥ 0 leading rows, k being how many more rows p has: one
// status per structural, slack and artificial variable of that program
// and one basic variable per row.
func fits(p *Problem, from *Basis) (k int, ok bool) {
	if from == nil {
		return 0, false
	}
	m0 := len(from.basis)
	k = len(p.rows) - m0
	return k, k >= 0 && len(from.status) == len(p.cols)+2*m0
}

// install loads p's columns and the basis from, taken on a program p
// extends by k leading rows (see SolvePrepended; k is 0 for SolveFrom).
// Every artificial is pinned at zero, as the solve that took the
// snapshot left them after its phase 1, under the column sign that solve
// chose; a new row's artificial is nonbasic and its slack basic. Old
// slacks and artificials move up k rows. Nonbasic variables sit at the
// bound their status names under p's bounds, and the basis is left in
// s.basis for refactor.
func (s *Solver) install(p *Problem, from *Basis, k int) {
	s.prepare(p)
	m, n := s.m, s.n
	m0 := m - k
	for j, c := range p.cols {
		s.lo[j], s.hi[j] = c.lo, c.hi
		s.entries[j] = c.entries
		s.obj[j] = c.obj
	}
	for i, r := range p.rows {
		j := n + i
		s.lo[j], s.hi[j] = -r.hi, -r.lo
		s.single[i] = Entry{Row: i, Coef: 1}
		s.entries[j] = s.single[i : i+1]
	}
	for i := 0; i < m; i++ {
		j := n + m + i
		sign := 1.0
		if i >= k {
			sign = float64(from.asign[i-k])
		}
		s.single[m+i] = Entry{Row: i, Coef: sign}
		s.entries[j] = s.single[m+i : m+i+1]
		s.lo[j], s.hi[j] = 0, 0
	}

	// Old variable j is new variable j, j+k (a slack) or j+2k (an
	// artificial).
	shift := func(j int) int {
		switch {
		case j < n:
			return j
		case j < n+m0:
			return j + k
		default:
			return j + 2*k
		}
	}
	for j, st := range from.status {
		s.status[shift(j)] = st
	}
	for i := 0; i < k; i++ {
		s.status[n+i] = basic
		s.status[n+m+i] = atLower
		s.basis[i] = n + i
	}
	for i, j := range from.basis {
		s.basis[k+i] = shift(int(j))
	}
	for j := 0; j < n+2*m; j++ {
		switch s.status[j] {
		case atLower:
			if lo := s.lo[j]; !math.IsInf(lo, -1) {
				s.xval[j] = lo
			}
		case atUpper:
			if hi := s.hi[j]; !math.IsInf(hi, 1) {
				s.xval[j] = hi
			}
		}
	}
}

// primalFeasible reports whether every basic variable lies within its
// bounds to within feasTol.
func (s *Solver) primalFeasible() bool {
	for i, j := range s.basis {
		if v := s.xb[i]; v < s.lo[j]-feasTol || v > s.hi[j]+feasTol {
			return false
		}
	}
	return true
}

// ForgetLoad drops the factorization the last SolveFrom marked for
// reuse, so the next one refactorizes whatever snapshot it is given.
// Branch and bound calls it between sibling pairs, which makes reuse a
// property of the pair rather than of what its worker solved before.
func (s *Solver) ForgetLoad() { s.loaded.from = nil }

// dualIterate runs bounded dual simplex pivots until primal feasibility
// (returns Optimal), a proof that no feasible point exists (returns
// Infeasible), or trouble (returns IterationLimit; the caller falls
// back to a cold solve).
func (s *Solver) dualIterate(c []float64) Status {
	m := s.m
	iters := 0
	for {
		iters++
		if iters > s.maxIters {
			return IterationLimit
		}

		// Leaving variable: the basic variable with the largest bound
		// violation (tie → lowest row position).
		r := -1
		sigma := 1.0
		maxViol := feasTol
		for i := 0; i < m; i++ {
			j := s.basis[i]
			v := s.xb[i]
			if d := s.lo[j] - v; d > maxViol {
				r, sigma, maxViol = i, -1, d
			} else if d := v - s.hi[j]; d > maxViol {
				r, sigma, maxViol = i, 1, d
			}
		}
		if r == -1 {
			return Optimal // primal feasible
		}

		// Row r of B⁻¹ and the simplex multipliers, via two btrans.
		rho := s.rho
		for i := range rho {
			rho[i] = 0
		}
		rho[r] = 1
		s.btran(rho)
		y := s.y
		for i := 0; i < m; i++ {
			y[i] = c[s.basis[i]]
		}
		s.btran(y)

		// Entering variable: bounded dual ratio test. A nonbasic j can
		// absorb the violation when moving it shrinks xb[r] toward its
		// bound, i.e. sigma·(row r of B⁻¹A)_j has the right sign for
		// j's status; among those, the smallest reduced-cost ratio
		// keeps the basis dual feasible (tie → larger pivot, then
		// lower index).
		q := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		for j := 0; j < len(s.xval); j++ {
			st := s.status[j]
			if st == basic || s.lo[j] == s.hi[j] {
				continue
			}
			alpha := 0.0
			for _, e := range s.entries[j] {
				alpha += rho[e.Row] * e.Coef
			}
			a := sigma * alpha
			if st == atLower {
				if a <= tol {
					continue
				}
			} else {
				if a >= -tol {
					continue
				}
			}
			d := c[j]
			for _, e := range s.entries[j] {
				d -= y[e.Row] * e.Coef
			}
			ratio := d / a
			if ratio < 0 {
				ratio = 0 // clamp tolerance-level dual infeasibility
			}
			if ratio < bestRatio-1e-12 {
				q, bestRatio, bestAlpha = j, ratio, alpha
			} else if q >= 0 && ratio < bestRatio+1e-12 && math.Abs(alpha) > math.Abs(bestAlpha) {
				q, bestRatio, bestAlpha = j, ratio, alpha
			}
		}
		if q == -1 {
			// The violated row cannot be repaired by any bound-respecting
			// move: the problem is primal infeasible.
			return Infeasible
		}

		// Direction w = B⁻¹ a_q and the pivot step.
		w := s.w
		for i := range w {
			w[i] = 0
		}
		for _, e := range s.entries[q] {
			w[e.Row] += e.Coef
		}
		s.ftran(w)
		piv := w[r]
		if math.Abs(piv) < pivTol {
			return IterationLimit // numerically lost pivot
		}
		jl := s.basis[r]
		var bound float64
		leaveAt := atLower
		if sigma > 0 {
			bound, leaveAt = s.hi[jl], atUpper
		} else {
			bound = s.lo[jl]
		}
		dx := (s.xb[r] - bound) / piv
		if math.Abs(dx) < tol {
			s.stats.DegeneratePivots++
		}

		newVal := s.xval[q] + dx
		for i := 0; i < m; i++ {
			if i == r || w[i] == 0 {
				continue
			}
			s.xb[i] -= dx * w[i]
			s.xval[s.basis[i]] = s.xb[i]
		}
		s.status[jl] = leaveAt
		s.xval[jl] = bound
		s.basis[r] = q
		s.status[q] = basic
		s.xb[r] = newVal
		s.xval[q] = newVal

		s.updNNZ += s.appendEta(w, r)
		s.updates++
		s.pivots++
		s.stats.Pivots++
		s.stats.DualPivots++
		if s.updates >= refactorEvery || s.updNNZ > s.fillMax {
			if !s.refactor() {
				return IterationLimit
			}
		}
	}
}
