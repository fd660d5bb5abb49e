package lp

import (
	"math"
	"math/bits"
)

// Basis is an immutable snapshot of a solved problem's basis: the
// nonbasic status of every variable (structural, slack, and artificial)
// plus the basic variable at each row position. Branch and bound
// captures one per expanded node and warm-starts both children from it
// via SolveFrom. A Basis is safe to share across goroutines.
//
// A snapshot is whole or a delta. A whole one holds every status and the
// whole basis order. A delta holds only the statuses and basis positions
// that differ from its parent, the snapshot the solve that took it was
// loaded from, packed into one []int32: a branch and bound child ends a
// few pivots from its parent, so its basis differs in a few places. A
// delta keeps its parent, and so the chain of ancestors up to a whole
// snapshot, alive; a load flattens that chain into solver scratch.
type Basis struct {
	// status is every variable's status in a whole snapshot, nil in a
	// delta.
	status []varStatus
	// basis is the basic variable at each row position in a whole
	// snapshot. In a delta it holds the changes: basis[:nstat] are the
	// statuses that differ from the parent's, variable j at status st as
	// j<<2 | st, and the rest are pairs (i, j), variable j basic at row
	// position i.
	basis []int32
	nstat int
	// parent is the snapshot a delta applies to, nil in a whole one;
	// chain is the packed changes held by the delta and its ancestors.
	parent *Basis
	chain  int
	// asign records each artificial column's sign, which the cold solve
	// chose from its starting residuals; warm starts must rebuild the
	// identical basis matrix.
	asign []int8
}

// Snapshot captures the current basis. It must be called directly after
// a SolveFrom on this solver that returned Optimal; the snapshot then
// warm-starts later solves of the same problem shape with modified
// column bounds. The artificial signs never change below one cold solve,
// so a snapshot of a solve that SolveFrom loaded shares the loaded
// basis's signs instead of copying them.
//
// After a warm solve loaded from a snapshot of the same shape (no rows
// prepended) the snapshot is a delta against it, one struct and one
// []int32, unless that would not be smaller: unless the changes, added
// to those of the chain of deltas it would extend, take as many bytes as
// a whole snapshot. So a load never reads more than about twice a whole
// snapshot's worth. After a cold solve, or one loaded with leading rows
// prepended, the snapshot is whole.
func (s *Solver) Snapshot() *Basis {
	b := s.snapshot()
	if testHookSnapshot != nil {
		testHookSnapshot(s, b)
	}
	return b
}

// testHookSnapshot, when a test sets it, sees every snapshot as Snapshot
// returns it, with the solver that took it.
var testHookSnapshot func(*Solver, *Basis)

// snapshot is Snapshot.
func (s *Solver) snapshot() *Basis {
	if s.base != nil {
		if b := s.delta(); b != nil {
			return b
		}
	}
	b := &Basis{
		status: append([]varStatus(nil), s.status...),
		basis:  make([]int32, s.m),
		asign:  s.asign,
	}
	for i, j := range s.basis {
		b.basis[i] = int32(j)
	}
	if b.asign == nil {
		b.asign = make([]int8, s.m)
		for i := range b.asign {
			b.asign[i] = int8(s.single[s.m+i].Coef)
		}
	}
	return b
}

// delta returns the current basis as a delta against s.base, the
// snapshot this solve loaded, or nil when a whole snapshot is no larger.
func (s *Solver) delta() *Basis {
	status, basis := s.view(s.base)
	nstat, npos := 0, 0
	for j, st := range s.status {
		if st != status[j] {
			nstat++
		}
	}
	for i, j := range s.basis {
		if int32(j) != basis[i] {
			npos++
		}
	}
	n := nstat + 2*npos
	if 4*(s.base.chain+n) >= len(s.status)+4*s.m {
		return nil
	}
	b := &Basis{basis: make([]int32, 0, n), nstat: nstat, parent: s.base, chain: s.base.chain + n, asign: s.asign}
	for j, st := range s.status {
		if st != status[j] {
			b.basis = append(b.basis, int32(j)<<2|int32(st))
		}
	}
	for i, j := range s.basis {
		if int32(j) != basis[i] {
			b.basis = append(b.basis, int32(i), int32(j))
		}
	}
	return b
}

// view returns from's statuses and basis order: a whole snapshot's own,
// and a delta's flattened into solver scratch, where they stay until the
// solver flattens another. Flattening walks the chain up to its whole
// snapshot, in a stack kept in scratch too, and applies the deltas from
// there down, so a load from a delta allocates nothing once the scratch
// has grown.
func (s *Solver) view(from *Basis) ([]varStatus, []int32) {
	if from.parent == nil {
		return from.status, from.basis
	}
	if s.flat != from {
		stack := s.stack[:0]
		root := from
		for ; root.parent != nil; root = root.parent {
			stack = append(stack, root)
		}
		status := append(s.flatStatus[:0], root.status...)
		basis := append(s.flatBasis[:0], root.basis...)
		for k := len(stack) - 1; k >= 0; k-- {
			d := stack[k]
			for _, v := range d.basis[:d.nstat] {
				status[v>>2] = varStatus(v & 3)
			}
			for t := d.nstat; t < len(d.basis); t += 2 {
				basis[d.basis[t]] = d.basis[t+1]
			}
		}
		clear(stack)
		s.stack, s.flatStatus, s.flatBasis, s.flat = stack[:0], status, basis, from
	}
	return s.flatStatus, s.flatBasis
}

// SolveFrom solves p, with each of fixes pinning its column. With a nil
// from it is a cold solve: the two-phase bounded revised simplex method
// from a slack crash basis. Otherwise it starts from a basis snapshot
// taken at the optimum of a program p extends by k ≥ 0 leading rows, k
// being how many more rows p has: the same columns with the same bounds
// apart from fixes, possibly entries on the new rows, and, when k > 0,
// any objective.
//
// With k = 0 — branch and bound's children, which differ from their
// parent only in column bounds — the basis stays dual feasible, since
// bound changes never touch reduced costs, so the bounded dual simplex
// drives out the (typically one or two) primal bound violations in a
// handful of pivots instead of a full two-phase solve. Both phases of
// work are skipped entirely when the old optimum is still primal
// feasible.
//
// With k > 0 the old basis with each new row's slack basic is a basis
// of p, but a new objective leaves it no dual feasibility for the dual
// simplex to keep. When its point satisfies the new rows and every bound
// to within feasTol — as phase 1's root relaxation satisfies the cost
// row that pins its own integer optimum in phase 2 — it is primal
// feasible, and primal simplex runs from it; only the new objective's
// pivots remain. Otherwise it falls back cold.
//
// The result is a pure function of (p, from, fixes): any numerical
// trouble falls back deterministically to a cold solve with the same
// fixes, so callers may use SolveFrom from any worker without affecting
// reproducibility. A snapshot of the wrong shape also falls back cold.
//
// A call that follows, on this solver, a SolveFrom of the same problem
// from the same snapshot skips the load-time refactorization when the
// earlier solve never refactorized again (see loadMark): the state it
// starts from is identical either way, only the work differs.
func (s *Solver) SolveFrom(p *Problem, from *Basis, fixes ...Fix) (*Solution, error) {
	if err := validate(p, fixes); err != nil {
		return nil, err
	}
	s.c.solves.Inc()
	sol := s.solve(p, from, fixes)
	s.c.pivots.Add(s.pivots)
	s.c.dualPivots.Add(s.dualPivots)
	s.c.degeneratePivots.Add(s.degenerate)
	s.pivots, s.dualPivots, s.degenerate = 0, 0, 0
	return sol, nil
}

// solve is SolveFrom on a validated problem.
func (s *Solver) solve(p *Problem, from *Basis, fixes []Fix) *Solution {
	if from == nil {
		s.c.coldSolves.Inc()
		return s.solveCold(p, fixes)
	}
	k, ok := s.loadBasis(p, from, fixes)
	if !ok {
		s.c.fallbacks.Inc()
		return s.solveCold(p, fixes)
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
		s.c.factorReuses.Inc()
	} else {
		if !s.refactor() {
			s.c.fallbacks.Inc()
			return s.solveCold(p, fixes)
		}
		mark.from, mark.prob = from, p
		mark.etas, mark.nnz = len(s.etaRow), len(s.etaIdx)
		mark.basis = append(mark.basis[:0], s.basis...)
	}
	if k > 0 && !s.primalFeasible() {
		s.c.fallbacks.Inc()
		return s.solveCold(p, fixes)
	}

	s.price(s.obj)
	switch s.dualIterate(s.obj) {
	case Infeasible:
		s.c.warmStarts.Inc()
		s.c.warmInfeasible.Inc()
		return &Solution{Status: Infeasible}
	case IterationLimit:
		s.c.fallbacks.Inc()
		return s.solveCold(p, fixes)
	}
	// Primal cleanup certifies optimality against freshly priced reduced
	// costs (and mops up any dual infeasibility introduced by tolerance
	// drift); usually 0 pivots.
	st := s.iterate(s.obj, true)
	if st == IterationLimit {
		s.c.fallbacks.Inc()
		return s.solveCold(p, fixes)
	}
	s.c.warmStarts.Inc()
	if st == Unbounded {
		return &Solution{Status: Unbounded}
	}
	return s.extract(p)
}

// loadBasis loads p and the snapshot from, each of fixes pinning its
// column, leaving the basis in s.basis for refactor: through reload when
// s holds p and from has p's shape, else through install. It reports how
// many leading rows p has beyond from's program, and false, loading
// nothing, when from is no basis of a program p extends.
func (s *Solver) loadBasis(p *Problem, from *Basis, fixes []Fix) (k int, ok bool) {
	status, basis := s.view(from)
	if k, ok = fits(p, status, basis); !ok {
		return k, false
	}
	if k == 0 && s.held == p && s.byRow == p.byRow {
		s.reload(from, status, basis, fixes)
	} else {
		s.install(p, from, status, basis, k, fixes)
	}
	s.base = nil
	if k == 0 {
		s.base = from
	}
	return k, true
}

// fits reports whether a snapshot's statuses and basis order have the
// shape of a basis of a program that p extends by k ≥ 0 leading rows, k
// being how many more rows p has: one status per structural, slack and
// artificial variable of that program and one basic variable per row.
func fits(p *Problem, status []varStatus, basis []int32) (k int, ok bool) {
	m0 := len(basis)
	k = len(p.rows) - m0
	return k, k >= 0 && len(status) == len(p.cols)+2*m0
}

// install loads p's columns, each of fixes pinning its own, and the
// basis from, taken on a program p extends by k leading rows (see
// SolveFrom), whose statuses and basis order view returned.
// Every artificial is pinned at zero, as the solve that took the
// snapshot left them after its phase 1, under the column sign that solve
// chose; a new row's artificial is nonbasic and its slack basic. Old
// slacks and artificials move up k rows. Nonbasic variables sit at the
// bound their status names under p's bounds, and the basis is left in
// s.basis for refactor.
func (s *Solver) install(p *Problem, from *Basis, status []varStatus, basis []int32, k int, fixes []Fix) {
	s.load(p, fixes)
	m, n := s.m, s.n
	m0 := m - k
	s.asign = nil
	if k == 0 {
		s.asign = from.asign
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
	for j, st := range status {
		s.status[shift(j)] = st
	}
	for i := 0; i < k; i++ {
		s.status[n+i] = basic
		s.status[n+m+i] = atLower
		s.basis[i] = n + i
	}
	for i, j := range basis {
		s.basis[k+i] = shift(int(j))
	}
	s.placeNonbasic()
	s.held = p
	s.fixed = append(s.fixed[:0], fixes...)
}

// placeNonbasic puts every nonbasic variable at the bound its status
// names, or at zero when that bound is infinite, as a load leaves it;
// a basic variable's value waits for computeBasics.
func (s *Solver) placeNonbasic() {
	for j, st := range s.status {
		v := 0.0
		switch st {
		case atLower:
			if lo := s.lo[j]; !math.IsInf(lo, -1) {
				v = lo
			}
		case atUpper:
			if hi := s.hi[j]; !math.IsInf(hi, 1) {
				v = hi
			}
		}
		s.xval[j] = v
	}
}

// reload is install for the problem the solver already holds (s.held),
// the difference between two loads of one problem being their fixes and
// their basis. A warm solve changes no column's data and no bound, so
// reload restores the bounds of the columns the previous load fixed,
// applies the new fixes, takes the snapshot's artificial signs, statuses
// and basis, and places the nonbasic variables; of the scratch a solve
// leaves behind, only a pivot row computed and not yet applied (alpha
// and reach) is read by the next solve before it is rewritten, so that
// is cleared where reach marks it. Everything else refactor or the first
// price rewrites. The state it leaves is a fresh install's, bit for bit.
func (s *Solver) reload(from *Basis, status []varStatus, basis []int32, fixes []Fix) {
	p := s.held
	for _, f := range s.fixed {
		c := &p.cols[f.Col]
		s.lo[f.Col], s.hi[f.Col] = c.lo, c.hi
	}
	s.fix(fixes)
	s.fixed = append(s.fixed[:0], fixes...)
	m := s.m
	s.asign = from.asign
	for i, sign := range from.asign {
		s.single[m+i].Coef = float64(sign)
	}
	copy(s.status, status)
	for i, j := range basis {
		s.basis[i] = int(j)
	}
	s.placeNonbasic()
	for wi, word := range s.reach {
		for ; word != 0; word &= word - 1 {
			s.alpha[wi<<6|bits.TrailingZeros64(word)] = 0
		}
		s.reach[wi] = 0
	}
	s.fresh = false
	s.degens = 0
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
// back to a cold solve). It starts from the reduced costs in d and
// keeps them current.
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

		// Entering variable: bounded dual ratio test over the columns
		// row r of B⁻¹A reaches, in index order. A nonbasic j can absorb
		// the violation when moving it shrinks xb[r] toward its bound,
		// i.e. sigma·α_rj has the right sign for j's status; among those,
		// the smallest reduced-cost ratio keeps the basis dual feasible
		// (tie → larger pivot, then lower index).
		s.pivotRow(r)
		q := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		for wi, word := range s.reach {
			for ; word != 0; word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				st := s.status[j]
				if st == basic || s.lo[j] == s.hi[j] {
					continue
				}
				alpha := s.alpha[j]
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
				ratio := s.d[j] / a
				if ratio < 0 {
					ratio = 0 // clamp tolerance-level dual infeasibility
				}
				if ratio < bestRatio-1e-12 {
					q, bestRatio, bestAlpha = j, ratio, alpha
				} else if q >= 0 && ratio < bestRatio+1e-12 && math.Abs(alpha) > math.Abs(bestAlpha) {
					q, bestRatio, bestAlpha = j, ratio, alpha
				}
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
		s.updateDuals(q, r, piv)
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
			s.degenerate++
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
		s.dualPivots++
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
