// Package lp implements a linear programming solver: a bounded-variable
// revised simplex method with the basis inverse kept in product form
// (an eta file), two phases (artificial-variable feasibility search,
// then cost minimization), Dantzig pricing over maintained reduced
// costs, pivot row computed row-wise, with a Bland anti-cycling
// fallback, periodic refactorization for numerical stability, and a
// bounded dual simplex that warm-starts from a basis snapshot. A cold
// solve starts from a slack crash basis: a row that the starting point
// (every column at a finite bound) already satisfies starts on its
// slack, and only the rows that point violates carry an artificial.
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
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
	// byRow is the structural entries in row-major order. Validate builds
	// it once it has checked every bound, objective coefficient and entry
	// row index, and AddRow, AddCol and AddEntry drop it, so nil means
	// unchecked: Validate, which runs on every solve, checks a problem
	// once, not once per branch and bound node. It is never written after
	// it is built.
	byRow *rowMajor
	// room is the entry count Reserve made room for of each column still
	// to come, in the order they are added, and spare the storage set
	// aside for them that no column has claimed yet: AddCol carves each
	// such column's entries from it.
	room  []int
	spare []Entry
}

// rowMajor holds a problem's structural entries by row: row i's are
// (col[t], coef[t]) for t in [start[i], start[i+1]), in column order.
// The solver computes a pivot row ρ·A from it over ρ's nonzero rows
// only.
type rowMajor struct {
	start []int32
	col   []int32
	coef  []float64
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
	p.byRow = nil
	return len(p.rows) - 1
}

// AddCol appends a variable with objective coefficient obj, bounds
// [lo, hi], and the given sparse constraint entries, returning its
// index. A column Reserve made room for takes its storage, for these
// entries and those AddEntry appends later, from what Reserve set aside
// while it lasts.
func (p *Problem) AddCol(obj, lo, hi float64, entries ...Entry) int {
	n := len(entries)
	if len(p.room) > 0 {
		n, p.room = max(n, p.room[0]), p.room[1:]
	}
	var es []Entry
	if n <= len(p.spare) {
		es, p.spare = p.spare[:0:n], p.spare[n:]
	} else if n > 0 {
		es = make([]Entry, 0, n)
	}
	p.cols = append(p.cols, column{obj: obj, lo: lo, hi: hi, entries: append(es, entries...)})
	p.byRow = nil
	return len(p.cols) - 1
}

// Reserve makes room for rows more rows and len(room) more columns, the
// k-th column added next holding room[k] entries in all, so that a
// problem whose size its builder has counted is written into arrays
// allocated once.
func (p *Problem) Reserve(rows int, room []int) {
	p.rows = slices.Grow(p.rows, rows)
	p.cols = slices.Grow(p.cols, len(room))
	entries := 0
	for _, k := range room {
		entries += k
	}
	p.room, p.spare = room, make([]Entry, entries)
}

// PinObjective returns a new problem: p with one leading row c·x ≤ hi,
// c being p's objective, p's rows following it in order,
// and objective obj, one coefficient per column; p is left as it was.
// Column j's coefficient on the new row, when c_j is nonzero, goes
// at(j, k) entries into its k entries (at most k: last). The order of a
// column's entries is the order the solver sums them in, which decides
// which of several equal optima a solve reports, so a caller that
// replaces building the pinned program row first places each
// coefficient where that build did.
func (p *Problem) PinObjective(hi float64, obj []float64, at func(col, k int) int) *Problem {
	nnz := 0
	for _, c := range p.cols {
		nnz += len(c.entries)
		if c.obj != 0 {
			nnz++
		}
	}
	q := &Problem{rows: make([]rowBounds, 0, len(p.rows)+1), cols: make([]column, len(p.cols))}
	q.rows = append(append(q.rows, rowBounds{lo: math.Inf(-1), hi: hi}), p.rows...)
	spare := make([]Entry, nnz)
	for j, c := range p.cols {
		k, pos := len(c.entries), -1
		if c.obj != 0 {
			pos = min(at(j, k), k)
		}
		es := spare[:0:len(spare)]
		for i, e := range c.entries {
			if i == pos {
				es = append(es, Entry{Row: 0, Coef: c.obj})
			}
			es = append(es, Entry{Row: e.Row + 1, Coef: e.Coef})
		}
		if pos == k {
			es = append(es, Entry{Row: 0, Coef: c.obj})
		}
		es = es[:len(es):len(es)]
		spare = spare[len(es):]
		q.cols[j] = column{obj: obj[j], lo: c.lo, hi: c.hi, entries: es}
	}
	return q
}

// Obj returns a column's objective coefficient.
func (p *Problem) Obj(col int) float64 { return p.cols[col].obj }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.rows) }

// NumCols returns the number of variables.
func (p *Problem) NumCols() int { return len(p.cols) }

// Fingerprint returns a SHA-256 digest of the problem as the solver
// reads it: the row and column counts, each row's bounds, and then per
// column its bounds, its objective coefficient and its entries in
// stored order, every float as its bit pattern. The order of a column's
// entries is the order the solver sums them in, so two builds of one
// program whose entries differ only in order have different
// fingerprints.
func (p *Problem) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	var b []byte
	put := func(vs ...float64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p.rows)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p.cols)))
	for _, r := range p.rows {
		put(r.lo, r.hi)
	}
	for _, c := range p.cols {
		put(c.lo, c.hi, c.obj)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(c.entries)))
		for _, e := range c.entries {
			b = binary.LittleEndian.AppendUint64(b, uint64(e.Row))
			put(e.Coef)
		}
		h.Write(b)
		b = b[:0]
	}
	h.Write(b)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Validate checks bound sanity, objective coefficients and entry
// indices, and builds the row-major copy of the entries. It does so only
// when a row, a column or an entry was added since the last successful
// call, which is the only way a problem changes: otherwise it returns at
// once. Once it has succeeded, and until the next AddRow, AddCol or
// AddEntry, it only reads the problem, so several solvers may then solve
// one problem concurrently.
func (p *Problem) Validate() error {
	if p.byRow != nil {
		return nil
	}
	for i, r := range p.rows {
		if r.lo > r.hi {
			return fmt.Errorf("lp: row %d has lo %v > hi %v", i, r.lo, r.hi)
		}
	}
	for j, c := range p.cols {
		if c.lo > c.hi {
			return fmt.Errorf("lp: col %d has lo %v > hi %v", j, c.lo, c.hi)
		}
		if math.IsNaN(c.obj) || math.IsInf(c.obj, 0) {
			return fmt.Errorf("lp: col %d has %v objective", j, c.obj)
		}
	}
	// Counting sort by row: count row i at start[i+2], so that the
	// prefix sums leave row i's first slot at start[i+1], which the fill
	// then advances to its end — row i+1's start.
	m := len(p.rows)
	start := make([]int32, m+2)
	for j, c := range p.cols {
		for _, e := range c.entries {
			if e.Row < 0 || e.Row >= m {
				return fmt.Errorf("lp: col %d references row %d of %d", j, e.Row, m)
			}
			start[e.Row+2]++
		}
	}
	for i := 2; i < m+2; i++ {
		start[i] += start[i-1]
	}
	rows := &rowMajor{start: start[:m+1], col: make([]int32, start[m+1]), coef: make([]float64, start[m+1])}
	for j, c := range p.cols {
		for _, e := range c.entries {
			t := start[e.Row+1]
			rows.col[t], rows.coef[t] = int32(j), e.Coef
			start[e.Row+1]++
		}
	}
	p.byRow = rows
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
	// X holds the variable values. It is the solver's own storage,
	// valid until that solver's next solve: a caller that keeps the
	// point past it copies X.
	X []float64
}

// AddEntry appends one coefficient to an existing column; it allows
// attaching columns to rows created after the column was added.
func (p *Problem) AddEntry(col, row int, coef float64) {
	p.cols[col].entries = append(p.cols[col].entries, Entry{Row: row, Coef: coef})
	p.byRow = nil
}

// ColEntryCount returns the number of nonzero coefficients of a column;
// branch and bound uses it as a connectivity measure when choosing a
// branching variable.
func (p *Problem) ColEntryCount(col int) int { return len(p.cols[col].entries) }

// Fix pins a column at one value for a single solve, overriding its
// bounds in the solver and leaving the problem untouched: branch and
// bound solves every node of a program from one shared, read-only
// Problem by passing the node's fixes to SolveFrom.
type Fix struct {
	// Col is the fixed column.
	Col int
	// Val is the value it is fixed at, its lower and upper bound both.
	Val float64
}
