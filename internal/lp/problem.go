// Package lp implements a linear programming solver: a bounded-variable
// revised simplex method with the basis inverse kept in product form
// (an eta file), two phases (artificial-variable feasibility search,
// then cost minimization), Dantzig pricing with a Bland anti-cycling
// fallback, periodic refactorization for numerical stability, and a
// bounded dual simplex that warm-starts from a basis snapshot.
//
// It exists because NoSE's schema optimizer solves binary integer
// programs (paper §V); the original uses Gurobi, which has no pure-Go
// equivalent, so the relaxations inside the branch-and-bound solver in
// internal/bip are solved here. Problems are expressed in the general
// bounded form:
//
//	minimize    c·x
//	subject to  rowLo ≤ A x ≤ rowHi
//	            colLo ≤  x  ≤ colHi
//
// with ±Inf bounds permitted on rows and columns.
package lp

import (
	"fmt"
	"math"
)

// Entry is one nonzero coefficient of a column.
type Entry struct {
	// Row is the constraint row index.
	Row int
	// Coef is the coefficient of the column in that row.
	Coef float64
}

// Problem is a linear program under construction. Build rows first,
// then columns with their sparse entries.
type Problem struct {
	cols []column
	rows []rowBounds
	// entriesOK records that every entry's row index has been checked
	// since the last AddCol or AddEntry, so that Validate, which runs on
	// every solve, walks the entries of a problem once, not once per
	// branch and bound node.
	entriesOK bool
}

type column struct {
	obj     float64
	lo, hi  float64
	entries []Entry
}

type rowBounds struct {
	lo, hi float64
}

// NewProblem returns an empty linear program.
func NewProblem() *Problem { return &Problem{} }

// AddRow appends a constraint row with activity bounds [lo, hi] and
// returns its index. Use math.Inf for one-sided rows and lo == hi for
// equalities.
func (p *Problem) AddRow(lo, hi float64) int {
	p.rows = append(p.rows, rowBounds{lo: lo, hi: hi})
	return len(p.rows) - 1
}

// AddCol appends a variable with objective coefficient obj, bounds
// [lo, hi], and the given sparse constraint entries, returning its
// index.
func (p *Problem) AddCol(obj, lo, hi float64, entries ...Entry) int {
	es := append([]Entry(nil), entries...)
	p.cols = append(p.cols, column{obj: obj, lo: lo, hi: hi, entries: es})
	p.entriesOK = false
	return len(p.cols) - 1
}

// Obj returns a column's objective coefficient.
func (p *Problem) Obj(col int) float64 { return p.cols[col].obj }

// SetColBounds changes a column's bounds.
func (p *Problem) SetColBounds(col int, lo, hi float64) {
	p.cols[col].lo, p.cols[col].hi = lo, hi
}

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.rows) }

// NumCols returns the number of variables.
func (p *Problem) NumCols() int { return len(p.cols) }

// Validate checks bound sanity and entry indices. The entry indices are
// walked only when a column or an entry was added since the last
// successful call; bounds and objective are checked every time.
func (p *Problem) Validate() error {
	for i, r := range p.rows {
		if r.lo > r.hi {
			return fmt.Errorf("lp: row %d has lo %v > hi %v", i, r.lo, r.hi)
		}
	}
	for j, c := range p.cols {
		if c.lo > c.hi {
			return fmt.Errorf("lp: col %d has lo %v > hi %v", j, c.lo, c.hi)
		}
		if math.IsNaN(c.obj) {
			return fmt.Errorf("lp: col %d has NaN objective", j)
		}
	}
	if p.entriesOK {
		return nil
	}
	for j, c := range p.cols {
		for _, e := range c.entries {
			if e.Row < 0 || e.Row >= len(p.rows) {
				return fmt.Errorf("lp: col %d references row %d of %d", j, e.Row, len(p.rows))
			}
		}
	}
	p.entriesOK = true
	return nil
}

// Eval evaluates the point x, one value per column: it reports whether
// x satisfies every column bound and row activity bound to within the
// solver's feasibility tolerance, and the objective at x. A program
// whose every column is fixed has exactly one candidate point, so
// branch and bound evaluates it here instead of running the simplex
// method on it: the objective is summed in the order Solver uses to
// report a solution, so for a feasible point it equals, bit for bit,
// the Objective of a solve with every column fixed at x. act is scratch
// for the row activities, at least NumRows long.
func (p *Problem) Eval(x, act []float64) (obj float64, feasible bool) {
	act = act[:len(p.rows)]
	for i := range act {
		act[i] = 0
	}
	feasible = true
	for j := range p.cols {
		c := &p.cols[j]
		v := x[j]
		if v < c.lo-feasTol || v > c.hi+feasTol {
			feasible = false
		}
		obj += c.obj * v
		if v == 0 {
			continue
		}
		for _, e := range c.entries {
			act[e.Row] += e.Coef * v
		}
	}
	for i, r := range p.rows {
		if a := act[i]; a < r.lo-feasTol || a > r.hi+feasTol {
			feasible = false
		}
	}
	return obj, feasible
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterationLimit means the solver gave up before converging.
	IterationLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a solve.
type Solution struct {
	// Status reports the solve outcome; X and Objective are only
	// meaningful when it is Optimal.
	Status Status
	// Objective is the optimal objective value.
	Objective float64
	// X holds the variable values.
	X []float64
}

// AddEntry appends one coefficient to an existing column; it allows
// attaching columns to rows created after the column was added.
func (p *Problem) AddEntry(col, row int, coef float64) {
	p.cols[col].entries = append(p.cols[col].entries, Entry{Row: row, Coef: coef})
	p.entriesOK = false
}

// ColEntryCount returns the number of nonzero coefficients of a column;
// branch and bound uses it as a connectivity measure when choosing a
// branching variable.
func (p *Problem) ColEntryCount(col int) int { return len(p.cols[col].entries) }

// Clone returns a deep copy of the problem. Parallel branch and bound
// gives each worker its own clone so column bounds can be fixed and
// reverted concurrently without synchronization.
func (p *Problem) Clone() *Problem {
	cp := &Problem{
		cols: make([]column, len(p.cols)),
		rows: append([]rowBounds(nil), p.rows...),

		entriesOK: p.entriesOK,
	}
	copy(cp.cols, p.cols)
	for i := range cp.cols {
		cp.cols[i].entries = append([]Entry(nil), cp.cols[i].entries...)
	}
	return cp
}
