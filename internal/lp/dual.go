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
	m, n := len(p.rows), len(p.cols)
	if from == nil || len(from.basis) != m || len(from.status) != n+2*m {
		s.stats.Fallbacks++
		return s.solveCold(p)
	}
	s.prepare(p)

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
	// Artificials keep the snapshot's column signs and stay pinned at
	// zero, as the parent solve left them after phase 1.
	for i := 0; i < m; i++ {
		j := n + m + i
		s.single[m+i] = Entry{Row: i, Coef: float64(from.asign[i])}
		s.entries[j] = s.single[m+i : m+i+1]
		s.lo[j], s.hi[j] = 0, 0
	}

	// Restore statuses; nonbasic variables sit at the bound their
	// status names under the *new* bounds — that shift is exactly the
	// primal infeasibility dual simplex repairs.
	copy(s.status, from.status)
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
		for i := 0; i < m; i++ {
			s.basis[i] = int(from.basis[i])
		}
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
