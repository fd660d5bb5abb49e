// Package bip solves binary integer programs: linear programs in which
// designated variables must take values in {0, 1}. The solver is a
// best-first branch and bound over LP relaxations (solved by
// internal/lp), with a rounding heuristic to find incumbents early and
// most-fractional branching. Relaxations are solved by a pool of
// workers over node batches whose width ramps deterministically with
// the round number, so the search scales with cores while its
// trajectory — and therefore the returned solution — stays
// bit-identical for every worker count.
//
// Every expanded node snapshots its relaxation's optimal basis, and
// both children re-solve from it with the dual simplex
// (lp.Solver.SolveFrom): a child differs from its parent by one bound
// fix, so re-optimization typically takes a handful of pivots instead
// of a full two-phase solve. Because a warm-started solve is a pure
// function of (problem, fixes, parent basis), the speedup does not
// disturb worker-count invariance. The root itself starts warm when the
// program extends an already solved one by leading rows, as the
// advisor's second phase extends its first by the pinned cost row: it
// runs primal simplex from the first program's root basis
// (Options.RootBasis).
//
// After the root, every column whose root reduced cost alone lifts the
// bound to the incumbent's cutoff is fixed at its root value in every node
// (reduced-cost fixing, see rootFixing), and a better incumbent extends
// that set: the relaxations then never pivot on the columns the root has
// already priced out.
//
// A node is meant to cost its pivots and nothing else, so three kinds
// of LP are never solved: a node whose bound, rounded up, cannot beat
// the incumbent of a program with an integer-valued objective; a
// program whose every column is fixed, which is evaluated; and the
// second factorization of a basis both siblings start from, which the
// pair's worker reuses.
//
// Nor does a node allocate for its solve. Every worker reads the one
// validated program and hands its solver the node's fixes, merged with
// the reduced-cost fixes in a buffer of its own, which the solver applies
// when it loads the node. The per-worker lp.Solvers, and the call's other
// buffers, come from free lists shared by every Solve call and go back on
// every exit path. The collector never empties a free list, as it does a
// sync.Pool several times per advise of a large workload, so they grow
// once per process, not once per call. A relaxation's point is read in
// the solver's storage and copied out, into a buffer per batch slot, only
// where the branching pass keeps it: at an integral node and at every
// 16th, which the rounding heuristic reads. What a node does allocate is
// its own record: its relaxation's Solution header, the basis snapshot a
// branching node hands its children (as a rule the statuses and basis
// positions that differ from the snapshot it was loaded from, see
// lp.Basis; the artificial signs are shared with it), and each child's
// fix list.
//
// NoSE's schema optimizer (paper §V) formulates column family selection
// as such a program; the paper hands it to Gurobi, whose parallel
// branch and bound has no pure-Go counterpart, so this package provides
// the exact solver the advisor needs.
package bip

import (
	"cmp"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"sync"

	"nose/internal/lp"
	"nose/internal/obs"
	"nose/internal/par"
)

// Program is a 0-1 integer program under construction: an LP every
// column of which is a binary variable.
type Program struct {
	lp *lp.Problem
}

// New returns an empty program.
func New() *Program {
	return &Program{lp: lp.NewProblem()}
}

// AddRow appends a constraint row with activity bounds [lo, hi].
func (p *Program) AddRow(lo, hi float64) int { return p.lp.AddRow(lo, hi) }

// AddBinary appends a binary variable and returns its column index.
func (p *Program) AddBinary(obj float64, entries ...lp.Entry) int {
	return p.lp.AddCol(obj, 0, 1, entries...)
}

// Reserve makes room for rows more rows and len(room) more variables,
// the k-th variable added next holding room[k] coefficients in all: a
// program whose size was counted beforehand is then built in arrays
// allocated once.
func (p *Program) Reserve(rows int, room []int) { p.lp.Reserve(rows, room) }

// PinObjective returns the program that pins p's objective: p with the
// leading row c·x ≤ hi, c being p's objective, and objective obj. The
// advisor's second phase is its first pinned at the first's optimum, so
// the second program's root relaxation warm-starts from the first's root
// basis (Options.RootBasis). at places each column's coefficient on the
// new row among its entries (see lp.Problem.PinObjective).
func (p *Program) PinObjective(hi float64, obj []float64, at func(col, k int) int) *Program {
	return &Program{lp: p.lp.PinObjective(hi, obj, at)}
}

// Fingerprint returns the SHA-256 digest of the program's LP (see
// lp.Problem.Fingerprint): equal for two programs exactly when their
// rows, columns, objectives and the order of every column's entries
// agree, bit for bit.
func (p *Program) Fingerprint() [sha256.Size]byte { return p.lp.Fingerprint() }

// Eval scores x, a 0-1 point: its objective, and whether it satisfies
// every row within the LP's feasibility tolerance. It is the arithmetic
// and summation order Solve scores a seeded or rounded incumbent with,
// so a point evaluated here costs what Solve would report for it.
func (p *Program) Eval(x []float64) (obj float64, feasible bool) {
	return p.lp.Eval(x, make([]float64, p.NumRows()))
}

// NumRows returns the number of constraint rows.
func (p *Program) NumRows() int { return p.lp.NumRows() }

// NumCols returns the number of variables.
func (p *Program) NumCols() int { return p.lp.NumCols() }

// Status reports the outcome of an integer solve.
type Status int

const (
	// Optimal means a provably optimal integer solution was found.
	Optimal Status = iota
	// Infeasible means no integer solution satisfies the constraints.
	Infeasible
	// NodeLimit means the search stopped early; Objective holds the
	// best incumbent found, if any (check HasSolution).
	NodeLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options tunes the branch and bound search.
type Options struct {
	// MaxNodes bounds the number of explored nodes; zero means
	// DefaultMaxNodes.
	MaxNodes int
	// Gap is the relative optimality gap at which search stops; zero
	// means exact (up to numerical tolerance).
	Gap float64
	// Incumbent optionally seeds the search with a known feasible
	// assignment of the variables. A good warm start lets the search
	// prune aggressively from the first node.
	Incumbent []float64
	// Workers is the number of goroutines solving LP relaxations
	// concurrently; zero or negative means one. Nodes are expanded in
	// fixed-width batches whose composition is independent of Workers,
	// so the explored tree, incumbent, objective, and node count are
	// bit-identical for every worker count.
	Workers int
	// Obs, when non-nil, receives search counters (bip.*) and, through
	// each worker's solver (lp.Solver.SetObs), the lp.* ones. Every
	// counter recorded here is worker-count invariant: the explored tree
	// is, and LP work sums commute across the per-worker solvers.
	Obs *obs.Registry
	// Ctx, when non-nil, cancels the search: Solve checks it once per
	// node batch — before popping the batch's nodes — and returns
	// Ctx.Err() (so errors.Is sees context.Canceled or
	// DeadlineExceeded). Cancellation never returns a partial result;
	// a batch already in flight runs to completion first, bounding
	// cancel latency to one batch of LP re-solves.
	Ctx context.Context
	// RootBasis, when non-nil, warm-starts the root relaxation from the
	// optimal root basis (Result.RootBasis) of a program this one extends
	// by leading rows, as many as it has more: the same columns with the
	// same bounds, and any objective. The root then runs primal simplex
	// from that basis with the new rows' slacks basic (lp.Solver.
	// SolveFrom), falling back to a cold solve when that point violates
	// a new row.
	RootBasis *lp.Basis
}

// DefaultMaxNodes bounds the search when Options leaves MaxNodes zero.
const DefaultMaxNodes = 50_000

// batchWidth caps the number of nodes popped per expansion round.
// Workers beyond batchWidth can do no useful work and are capped.
const batchWidth = 16

// batchWidthFor returns the node batch width for expansion round k:
// 2, 4, 8, then batchWidth from round 3 on. Early rounds use narrow
// batches — warm-started child solves make nodes cheap, and keeping the
// frontier close to best-first while bounds are still weak avoids
// expanding nodes a better incumbent would soon have pruned. The ramp
// depends only on the round number — never on Options.Workers — because
// the batch composition determines the search trajectory: deriving it
// from anything scheduling-dependent would break worker-count
// invariance.
func batchWidthFor(round int) int {
	if round < 3 {
		return 2 << uint(round)
	}
	return batchWidth
}

// Result is the outcome of an integer solve.
type Result struct {
	// Status reports the search outcome.
	Status Status
	// HasSolution reports whether X and Objective hold an incumbent.
	HasSolution bool
	// Objective is the incumbent objective value.
	Objective float64
	// X holds the incumbent variable values, each exactly 0 or 1.
	X []float64
	// Nodes is the number of branch and bound nodes explored.
	Nodes int
	// Bound is the best proven lower bound on the optimal objective
	// when HasSolution: the incumbent itself when the search ran to
	// completion (to within Options.Gap), else the least relaxation
	// bound among the nodes still open at the node limit — rounded up
	// when the objective can only take integer values.
	Bound float64
	// RootBasis is the root relaxation's optimal basis, nil when the root
	// was not solved to optimality. A program that extends this one by
	// leading rows warm-starts its own root from it (Options.RootBasis).
	RootBasis *lp.Basis
}

// Gap returns the relative gap between the incumbent and the best
// proven bound: zero for a search that ran to completion, and for one
// stopped at the node limit how far, as a fraction of the incumbent,
// the optimum may still lie below it. Without an incumbent it is +Inf.
func (r *Result) Gap() float64 {
	if !r.HasSolution {
		return math.Inf(1)
	}
	if r.Bound >= r.Objective {
		return 0
	}
	return (r.Objective - r.Bound) / math.Max(math.Abs(r.Objective), 1e-12)
}

const intTol = 1e-6

// node is one branch and bound subproblem: the program with some
// binary columns fixed.
type node struct {
	bound float64
	seq   int // creation order, the deterministic heap tie-break
	fixes []lp.Fix
	basis *lp.Basis // parent relaxation's optimal basis; nil → cold solve
}

// nodeHeap is a hand-rolled binary min-heap ordered by (bound, seq). A
// typed heap avoids container/heap's interface{} boxing, which
// allocated on every push and pop of the search hot path.
type nodeHeap struct{ ns []*node }

func (h *nodeHeap) len() int { return len(h.ns) }

func (h *nodeHeap) less(i, j int) bool {
	a, b := h.ns[i], h.ns[j]
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	return a.seq < b.seq
}

func (h *nodeHeap) push(n *node) {
	h.ns = append(h.ns, n)
	i := len(h.ns) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ns[i], h.ns[parent] = h.ns[parent], h.ns[i]
		i = parent
	}
}

func (h *nodeHeap) pop() *node {
	top := h.ns[0]
	last := len(h.ns) - 1
	h.ns[0] = h.ns[last]
	h.ns[last] = nil
	h.ns = h.ns[:last]
	i := 0
	for {
		l, r, small := 2*i+1, 2*i+2, i
		if l < len(h.ns) && h.less(l, small) {
			small = l
		}
		if r < len(h.ns) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.ns[i], h.ns[small] = h.ns[small], h.ns[i]
		i = small
	}
	return top
}

// freeList holds what finished Solve calls handed back for the next
// ones: as many as were ever out at once, kept for the process's life.
// Unlike a sync.Pool, which the collector empties — and an advise of
// randwork allocates enough for it to run several times, so every advise
// would find the pool empty and regrow its solvers — nothing here is
// ever dropped, so what it holds grows once per process.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
	fresh func() T
}

// get takes an item, or makes one when none is free.
func (l *freeList[T]) get() T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.items); n > 0 {
		v := l.items[n-1]
		l.items = l.items[:n-1]
		return v
	}
	return l.fresh()
}

// put hands an item back.
func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	l.items = append(l.items, v)
	l.mu.Unlock()
}

// solvers holds the LP solvers of finished Solve calls, each Reset: a
// solve takes one per worker, so the buffers a relaxation needs are
// grown by the first solves of a process and reused by every later one.
// A reset solver's results and counters are a new one's.
var solvers = freeList[*lp.Solver]{fresh: lp.NewSolver}

// workspace is the storage of one Solve call that nothing it returns
// refers to: the rounding heuristic's point and row activities, the
// incumbent, the batch slots' point buffers, the reduced-cost candidates
// and each worker's merged fix list. Like the solvers it is kept across
// calls, so it grows once per process.
type workspace struct {
	point, activity, incumbentX []float64
	xs                          [][]float64 // slot i's buffer for batch[i].x
	cands                       []rcCand
	merged                      [][]lp.Fix // worker w's node fixes and the fixes in force
}

var workspaces = freeList[*workspace]{fresh: func() *workspace {
	return &workspace{xs: make([][]float64, batchWidth), merged: make([][]lp.Fix, batchWidth)}
}}

// resize returns s with length n, reusing its storage when it is large
// enough; its contents are left as they were.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Solve runs branch and bound and returns the best integer solution.
// When Options.Ctx is cancelled the search stops at the next batch
// boundary and returns the context's error. Solve leaves the program
// unchanged, but its first call on a program builds the LP's row-major
// index, so a program is solved from one goroutine at a time.
func (p *Program) Solve(opt Options) (*Result, error) {
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > batchWidth {
		workers = batchWidth
	}

	// Every worker reads the one program, validated here — the first
	// solve of a program checks it, every later one returns at once — so
	// that the solves only read it; a node's bound fixes live in its
	// worker's solver. Each worker owns a solver from the free list, and
	// worker 0's also serves the serial parts (root, seeding, rounding
	// heuristic).
	if err := p.lp.Validate(); err != nil {
		return nil, err
	}
	held := make([]*lp.Solver, workers)
	for w := range held {
		held[w] = solvers.get()
		held[w].SetObs(opt.Obs)
	}
	ws := workspaces.get()
	var rc rootFixing
	rc.cands = ws.cands[:0]

	// Return the solvers and the workspace on every exit path.
	defer func() {
		for _, s := range held {
			s.Reset()
			solvers.put(s)
		}
		ws.cands = rc.cands[:0]
		workspaces.put(ws)
	}()
	nodesC := opt.Obs.Counter("bip.nodes")
	batchesC := opt.Obs.Counter("bip.batches")
	prunedC := opt.Obs.Counter("bip.pruned_bound")
	prunedIntC := opt.Obs.Counter("bip.pruned_integral")
	fixedEvalsC := opt.Obs.Counter("bip.fixed_evals")
	incumbentsC := opt.Obs.Counter("bip.incumbents")
	rcFixedC := opt.Obs.Counter("bip.rc_fixed")
	rcRefixesC := opt.Obs.Counter("bip.rc_refixes")

	integral := !testNoRounding && p.integerObjective()

	res := &Result{Status: Optimal}
	incumbent := math.Inf(1)
	incumbentX := ws.incumbentX[:0]

	// lift rounds a relaxation bound up to the next value the objective
	// can take: every column is binary, so with every objective
	// coefficient an integer no solution below a node lies strictly
	// between two integers.
	lift := func(bound float64) float64 {
		if integral {
			return math.Ceil(bound - intTol)
		}
		return bound
	}

	// fixPriced extends the reduced-cost fixes in force to every column
	// whose root gain now lifts the bound to the cutoff (see rootFixing).
	fixPriced := func() {
		cutoff := incumbent - gapSlack(opt.Gap, incumbent)
		for ; rc.n < len(rc.cands); rc.n++ {
			if b := rc.z + rc.cands[rc.n].gain; b < cutoff && lift(b) < cutoff {
				break
			}
			rcFixedC.Inc()
		}
	}

	tryIncumbent := func(x []float64, obj float64) {
		if obj < incumbent-1e-9 {
			incumbent = obj
			incumbentX = append(incumbentX[:0], x...)
			ws.incumbentX = incumbentX
			incumbentsC.Inc()
			if rc.n < len(rc.cands) {
				rcRefixesC.Inc()
				fixPriced()
			}
		}
	}

	// dominated reports, and counts, a node whose bound says its subtree
	// holds nothing better than the incumbent.
	dominated := func(bound float64) bool {
		cutoff := incumbent - gapSlack(opt.Gap, incumbent)
		switch {
		case bound >= cutoff:
			prunedC.Inc()
		case lift(bound) >= cutoff:
			prunedIntC.Inc()
		default:
			return false
		}
		return true
	}

	// solveWith solves a node's relaxation on worker w's solver,
	// warm-started from a parent basis when one is given, with the
	// reduced-cost fixes in force beside the node's own, merged in the
	// worker's buffer.
	solveWith := func(w int, fixes []lp.Fix, from *lp.Basis) (*lp.Solution, error) {
		if rc.n > 0 {
			ws.merged[w] = append(rc.appendFixes(ws.merged[w][:0]), fixes...)
			fixes = ws.merged[w]
		}
		return held[w].SolveFrom(p.lp, from, fixes...)
	}

	// tryRounded rounds x — a seeded assignment, or a relaxation's
	// solution, which reports a column its node fixed at exactly the
	// fixed value — to the nearest 0-1 point and offers it as an
	// incumbent. The binaries are all the columns there are, so nothing
	// is left to optimize and the point is evaluated: one pass over the
	// entries with the LP's feasibility tolerance and its objective
	// summation order, so the incumbent is the one the LP would have
	// reported.
	ws.point = resize(ws.point, p.NumCols())
	ws.activity = resize(ws.activity, p.NumRows())
	point, activity := ws.point, ws.activity
	tryRounded := func(x []float64) {
		fixedEvalsC.Inc()
		for col := range point {
			point[col] = 0
			if x[col] >= 0.5 {
				point[col] = 1
			}
		}
		if obj, ok := p.lp.Eval(point, activity); ok {
			tryIncumbent(point, obj)
		}
	}

	open := &nodeHeap{}
	seq := 0
	push := func(bound float64, fixes []lp.Fix, from *lp.Basis) {
		seq++
		open.push(&node{bound: bound, seq: seq, fixes: fixes, basis: from})
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Validate and adopt the seeded incumbent, if any.
	if len(opt.Incumbent) == p.NumCols() {
		tryRounded(opt.Incumbent)
	}

	// The root's point is read in its solver's storage: everything
	// below that reads it runs before worker 0 solves again.
	rootSol, err := solveWith(0, nil, opt.RootBasis)
	if err != nil {
		return nil, err
	}
	switch rootSol.Status {
	case lp.Infeasible:
		return &Result{Status: Infeasible}, nil
	case lp.Unbounded:
		return nil, fmt.Errorf("bip: relaxation is unbounded")
	case lp.IterationLimit:
		return nil, fmt.Errorf("bip: relaxation hit the iteration limit")
	}
	res.RootBasis = held[0].Snapshot()
	if col := p.mostFractional(rootSol.X); col == -1 {
		tryIncumbent(rootSol.X, rootSol.Objective)
	} else {
		if !testNoFixing {
			rc.collect(rootSol, held[0].ReducedCosts())
			fixPriced()
		}
		tryRounded(rootSol.X)
		push(rootSol.Objective, nil, res.RootBasis)
	}

	// Expansion rounds: pop up to batchWidthFor(round) admissible
	// nodes, solve their relaxations in parallel, then branch in batch
	// order. The incumbent is read during batch formation and updated
	// only in the (sequential, deterministic) branching pass. The basis
	// of an optimal relaxation that will branch is snapshotted inside
	// the parallel section — the worker's solver state is overwritten by
	// its next node — and handed to both children as their warm-start
	// point.
	//
	// The two children of a node carry the same bound and consecutive
	// seq, so they leave the heap side by side, and since every batch
	// width is even and the root pops alone they land in the same batch
	// (a pair split by MaxNodes leaves its second child unexplored). The
	// unit handed to a worker is therefore the sibling pair: the second
	// child finds the factorization the first one loaded on the same
	// solver. A unit starts by dropping whatever its solver had loaded
	// before, so whether a factorization is reused depends on the pair
	// alone, never on which worker took it or what that worker solved
	// last, and the LP work counters stay worker-count invariant.
	//
	// A relaxation's point lives in its solver until that solver's next
	// solve, so the worker decides the branching column in place and
	// copies the point into its batch slot's buffer only when the
	// branching pass will read it: at an integral node, which offers it
	// as an incumbent, and at every 16th, which rounds it.
	type batchItem struct {
		nd   *node
		num  int // this node's 1-based exploration number
		sol  *lp.Solution
		x    []float64 // sol.X, copied when the branching pass reads it
		col  int       // branching column of an optimal relaxation, -1 if integral
		snap *lp.Basis // its basis, when it may branch
		err  error
	}
	batch := make([]batchItem, 0, batchWidth)
	units := make([]int, 0, batchWidth+1) // unit u is batch[units[u]:units[u+1]]
	xs := ws.xs

	for round := 0; open.len() > 0; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res.Nodes >= maxNodes {
			res.Status = NodeLimit
			break
		}
		width := batchWidthFor(round)
		batch, units = batch[:0], units[:0]
		for open.len() > 0 && len(batch) < width && res.Nodes < maxNodes {
			nd := open.pop()
			if dominated(nd.bound) {
				continue
			}
			if rc.contradicts(nd.fixes) {
				// Its subtree holds the other value of a column the root's
				// reduced cost has since priced out: a bound that reaches
				// the cutoff.
				prunedC.Inc()
				continue
			}
			res.Nodes++
			nodesC.Inc()
			if n := len(batch); n == 0 || n-units[len(units)-1] == 2 || batch[n-1].nd.basis != nd.basis {
				units = append(units, n)
			}
			batch = append(batch, batchItem{nd: nd, num: res.Nodes})
		}
		if len(batch) == 0 {
			continue
		}
		batchesC.Inc()
		units = append(units, len(batch))

		// An optimal relaxation hands its basis on only if it branches:
		// not when it is integral, nor when the incumbent this batch was
		// formed under — which can only fall before the branching pass
		// looks again — already dominates it.
		cutoff := incumbent - gapSlack(opt.Gap, incumbent)
		par.DoWorker(len(units)-1, workers, func(w, u int) {
			held[w].ForgetLoad()
			for i := units[u]; i < units[u+1]; i++ {
				it := &batch[i]
				it.sol, it.err = solveWith(w, it.nd.fixes, it.nd.basis)
				if it.err != nil || it.sol.Status != lp.Optimal {
					continue
				}
				it.col = p.mostFractional(it.sol.X)
				if it.col == -1 || it.num%16 == 1 {
					xs[i] = append(xs[i][:0], it.sol.X...)
					it.x = xs[i]
				}
				if it.col != -1 && lift(it.sol.Objective) < cutoff {
					it.snap = held[w].Snapshot()
				}
			}
		})

		for i := range batch {
			it := &batch[i]
			if it.err != nil {
				return nil, it.err
			}
			sol := it.sol
			if sol.Status != lp.Optimal {
				continue // infeasible or numerically stuck subtree
			}
			if dominated(sol.Objective) {
				continue
			}
			col := it.col
			if col == -1 {
				tryIncumbent(it.x, sol.Objective)
				continue
			}
			if it.num%16 == 1 {
				tryRounded(it.x)
			}
			for _, v := range [2]float64{1, 0} {
				push(sol.Objective, append(append([]lp.Fix(nil), it.nd.fixes...), lp.Fix{Col: col, Val: v}), it.snap)
			}
		}
	}

	if math.IsInf(incumbent, 1) {
		if res.Status == NodeLimit {
			return &Result{Status: NodeLimit, RootBasis: res.RootBasis}, nil
		}
		return &Result{Status: Infeasible, RootBasis: res.RootBasis}, nil
	}
	res.HasSolution = true
	res.Objective = incumbent
	res.Bound = incumbent
	if res.Status == NodeLimit && open.len() > 0 {
		res.Bound = math.Min(incumbent, lift(open.ns[0].bound))
	}
	res.X = append([]float64(nil), incumbentX...)
	// Snap binaries exactly.
	for col := range res.X {
		if res.X[col] >= 0.5 {
			res.X[col] = 1
		} else {
			res.X[col] = 0
		}
	}
	return res, nil
}

// rootFixing is reduced-cost fixing, the rule Cbc and Gurobi apply
// after the root relaxation. At an optimum the objective of any feasible
// point is the optimum plus, for every nonbasic variable, its reduced
// cost times its move off its bound, and each such term is non-negative.
// So a binary column nonbasic at the root, at value v with reduced cost
// of magnitude g, takes 1−v only in points costing at least the root
// objective plus g. Once that sum reaches the cutoff no point better
// than the incumbent has it at 1−v, and every node solves with it fixed
// at v: the simplex then never prices or pivots on it. The points a fix
// removes are ones the search would refuse as incumbents anyway, so the
// optimum it proves is unchanged; a node's bound can only rise. On RUBiS
// at the daemon's defaults, whose greedy start is already optimal, not
// even the tree changes, and only the LP work falls.
//
// The candidates are sorted by decreasing gain, so the fixes in force
// are always a prefix, which a better incumbent only lengthens. The
// prefix is shared by every node and merged with a node's own fixes when
// its worker solves it; a node whose own fix contradicts it is dominated.
type rootFixing struct {
	z     float64  // root objective, less a safety margin for rounding error
	cands []rcCand // nonbasic root columns at their root values, by decreasing gain
	n     int      // cands[:n] are in force
}

// rcCand is a column fixed at its root value when in force, and the least
// rise in objective of a point that leaves it there.
type rcCand struct {
	lp.Fix
	gain float64
}

// collect takes the candidates from the root relaxation's optimum and
// its reduced costs d, which are read before the solver solves again.
func (rc *rootFixing) collect(root *lp.Solution, d []float64) {
	rc.z = root.Objective - 1e-7*math.Max(1, math.Abs(root.Objective))
	for col, v := range root.X {
		switch {
		case v == 0 && d[col] > 0:
			rc.cands = append(rc.cands, rcCand{lp.Fix{Col: col, Val: 0}, d[col]})
		case v == 1 && d[col] < 0:
			rc.cands = append(rc.cands, rcCand{lp.Fix{Col: col, Val: 1}, -d[col]})
		}
	}
	slices.SortFunc(rc.cands, func(a, b rcCand) int {
		if c := cmp.Compare(b.gain, a.gain); c != 0 {
			return c
		}
		return a.Col - b.Col
	})
}

// appendFixes appends the fixes in force to dst.
func (rc *rootFixing) appendFixes(dst []lp.Fix) []lp.Fix {
	for _, c := range rc.cands[:rc.n] {
		dst = append(dst, c.Fix)
	}
	return dst
}

// contradicts reports whether one of fixes holds a column in force at
// its other value.
func (rc *rootFixing) contradicts(fixes []lp.Fix) bool {
	for _, f := range fixes {
		for _, c := range rc.cands[:rc.n] {
			if c.Col == f.Col && c.Val != f.Val {
				return true
			}
		}
	}
	return false
}

func gapSlack(gap, incumbent float64) float64 {
	slack := 1e-7
	if gap > 0 && !math.IsInf(incumbent, 1) {
		s := gap * math.Abs(incumbent)
		if s > slack {
			slack = s
		}
	}
	return slack
}

// testNoRounding, when a test sets it, makes Solve treat every
// objective as real-valued: the oracle the bound rounding is checked
// against.
var testNoRounding bool

// testNoFixing, when a test sets it, makes Solve fix no column by its
// root reduced cost: the search the fixing is checked against.
var testNoFixing bool

// integerObjective reports whether every objective coefficient is an
// integer, so that the objective takes integer values only.
func (p *Program) integerObjective() bool {
	for col := 0; col < p.NumCols(); col++ {
		if c := p.lp.Obj(col); c != math.Trunc(c) || math.IsInf(c, 0) {
			return false
		}
	}
	return true
}

// mostFractional returns the fractional binary column of the LP
// solution x to branch on, or -1 when all are integral. (A column the
// node fixed is reported at exactly its fixed value, so it never
// qualifies.) Among fractional variables it prefers the most connected
// one (most constraint entries): in selection problems those are the
// structural variables whose fixing propagates furthest, closing the
// gap in far fewer nodes than pure most-fractional branching.
func (p *Program) mostFractional(x []float64) int {
	best, bestScore := -1, 0.0
	for col := range x {
		frac := math.Abs(x[col] - math.Round(x[col]))
		if frac <= intTol {
			continue
		}
		score := frac * float64(1+p.lp.ColEntryCount(col))
		if score > bestScore {
			bestScore = score
			best = col
		}
	}
	return best
}

// AddColEntry appends one coefficient to an existing column, attaching
// it to a row created after the column.
func (p *Program) AddColEntry(col, row int, coef float64) {
	p.lp.AddEntry(col, row, coef)
}
