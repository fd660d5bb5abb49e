package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"nose/internal/bip"
	"nose/internal/enumerator"
	"nose/internal/migrate"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/workload"
)

// BuildPlans runs the plan-space generation stage alone — everything
// newBuilder does: planning every query, every update's maintenance,
// and every support-query group. It exists so benchmarks can measure
// this stage separately from enumeration and solving.
func BuildPlans(w *workload.Workload, enumRes *enumerator.Result, opt Options) error {
	p := &Prepared{opt: opt.withDefaults()}
	return p.plan(w, enumRes, false)
}

// Prepared is the advisor pipeline between enumeration and the answer:
// every interval planned, the phase-1 program formulated and its start
// point evaluated (the greedy warm start, or a pinned pool's only
// point). Its stages are formulate, solve or evaluated, and extract;
// advise runs them once, and benchmarks re-run solve to time the branch
// and bound phases in isolation.
type Prepared struct {
	opt    Options
	phases []*workload.Phase // nil for a static workload
	// builders holds one planned interval each; shares is each
	// interval's share of the timeline (1 for a static workload).
	builders []*builder
	shares   []float64

	// prog is the one formulated program, and phase 2's is derived from
	// it (phase2), so refs maps the columns of both.
	prog      *bip.Program
	refs      []*colRefs // per interval; indexCol is its presence columns
	incumbent []float64
	// startBytes is the size of the largest interval schema the start
	// point selects: what its paid families take against a space budget.
	startBytes float64

	// With several intervals: each interval's migration column per
	// family, by position in its builder's pool, and the per-column sink
	// of the intervals' columns (they precede every migration column), so
	// post-solve cost sums accumulate in creation order.
	migCols  [][]int
	colPhase []int     // owning interval
	colRaw   []float64 // unscaled in-interval workload cost
}

// Prepare plans the workload and formulates the phase-1 program: with
// Prepared.Solve, the benchmark hook that times the solver alone (root
// bench_test.go).
func Prepare(w *workload.Workload, enumRes *enumerator.Result, opt Options) (*Prepared, error) {
	return prepare(w, nil, enumRes, false, opt.withDefaults(), &SeriesRecommendation{})
}

// prepare plans every interval, formulates the phase-1 program
// (minimize weighted workload cost) and evaluates its start point,
// recording stage times and the problem size in sr. The start is the
// greedy warm start, or with pinned every pool family present.
func prepare(w *workload.Workload, phases []*workload.Phase, enumRes *enumerator.Result, pinned bool, opt Options, sr *SeriesRecommendation) (*Prepared, error) {
	p := &Prepared{opt: opt, phases: phases}
	t := time.Now()
	sp := opt.Trace.Begin("plan-spaces", "advisor")
	if err := p.plan(w, enumRes, pinned); err != nil {
		sp.End()
		return nil, err
	}
	sr.Timings.CostCalculation = time.Since(t)
	sp.End()

	t = time.Now()
	sp = opt.Trace.Begin("formulate", "advisor")
	p.prog, p.refs = p.formulate()
	sr.Timings.BIPConstruction = time.Since(t)
	for _, refs := range p.refs {
		sr.Stats.PlanVariables += refs.planVars
	}
	sr.Stats.Constraints = p.prog.NumRows()
	sp.SetArg("plan_variables", sr.Stats.PlanVariables).
		SetArg("constraints", sr.Stats.Constraints).End()
	opt.Obs.Counter("search.plan_variables").Add(int64(sr.Stats.PlanVariables))
	opt.Obs.Counter("search.constraints").Add(int64(sr.Stats.Constraints))

	// The start: each interval evaluates its selection, and migration
	// columns cover the presence transitions between them.
	p.incumbent = make([]float64, p.prog.NumCols())
	var prev []bool // the previous interval's selection
	for t, b := range p.builders {
		var selected []bool
		if pinned {
			selected = make([]bool, len(b.pool))
			for pos := range selected {
				selected[pos] = true
			}
		} else {
			selected = b.greedySchema(p.refs[t])
		}
		b.evaluate(p.incumbent, p.refs[t], selected)
		size := 0.0
		for pos, sel := range selected {
			if sel {
				size += b.pool[pos].SizeBytes()
			}
			if !sel || p.migCols == nil {
				continue
			}
			if t > 0 {
				if q, ok := p.builders[t-1].at[b.pool[pos].ID()]; ok && prev[q] {
					continue
				}
			}
			p.incumbent[p.migCols[t][pos]] = 1
		}
		p.startBytes = max(p.startBytes, size)
		prev = selected
	}
	return p, nil
}

// plan is the planning stage: one planner over enumRes's pool — so
// schema.Index pointers are shared, and column family identity and
// naming are stable across a series — and one builder per interval. A
// pinned pool keeps every family, each with a presence column.
func (p *Prepared) plan(w *workload.Workload, enumRes *enumerator.Result, pinned bool) error {
	pl := planner.New(enumRes.Pool, p.opt.CostModel, p.opt.Planner)
	pl.SetObs(p.opt.Obs)
	intervals := []*workload.Workload{w}
	p.shares = []float64{1}
	if p.phases != nil {
		intervals, p.shares = nil, nil
		total := w.TotalDuration()
		for _, ph := range p.phases {
			intervals = append(intervals, w.ForPhase(ph))
			p.shares = append(p.shares, ph.EffectiveDuration()/total)
		}
	}
	for i, iw := range intervals {
		b, err := newBuilder(iw, pl, enumRes, !pinned, p.opt)
		if err != nil {
			if p.phases != nil {
				err = fmt.Errorf("search: phase %q: %w", p.phases[i].Name, err)
			}
			return err
		}
		b.paidAll = pinned || len(intervals) > 1
		p.builders = append(p.builders, b)
	}
	return nil
}

// formulate builds the program, once per advise. It runs the one
// emission (emit) twice: into a counter, and then into the program
// reserved from that count, so the program's rows, columns and entries are
// allocated once and each column's entries written in place.
func (p *Prepared) formulate() (*bip.Program, []*colRefs) {
	refs := make([]*colRefs, len(p.builders))
	for t, b := range p.builders {
		refs[t] = &colRefs{indexCol: make([]int, len(b.pool)), queryCol: make([]int, len(b.queries))}
	}
	count := &counter{}
	p.emit(count, refs, false)
	prog := bip.New()
	prog.Reserve(count.rows, count.room)
	if len(p.builders) > 1 {
		p.colPhase = make([]int, 0, len(count.room))
		p.colRaw = make([]float64, 0, len(count.room))
	}
	p.emit(prog, refs, true)
	return prog, refs
}

// emit writes the program into e: every interval's formulation, its
// objective scaled by the interval's share, minimizing weighted workload
// cost, with refs filled as each interval's column map. Several intervals
// are linked by one migration column per (interval, candidate),
//
//	y[t][i] − y[t−1][i] − m[t][i] ≤ 0,
//
// so m[t][i] covers any presence not inherited from the previous
// interval. The first interval inherits nothing, so its whole schema is
// charged as the initial build. Only the pass that writes the program
// (write) records the migration columns and the per-column sink.
func (p *Prepared) emit(e emitter, refs []*colRefs, write bool) {
	series := len(p.builders) > 1
	for t, b := range p.builders {
		var sink func(raw float64)
		if series && write {
			sink = func(raw float64) {
				p.colPhase = append(p.colPhase, t)
				p.colRaw = append(p.colRaw, raw)
			}
		}
		b.formulatePhase(e, refs[t], p.shares[t], sink)
	}
	if !series {
		return
	}
	for t, b := range p.builders {
		if write {
			p.migCols = append(p.migCols, make([]int, len(b.pool)))
		}
		for pos, x := range b.pool {
			row := e.AddRow(math.Inf(-1), 0)
			col := e.AddBinary(migrate.BuildCost(x, p.opt.Migration))
			e.AddColEntry(col, row, -1)
			e.AddColEntry(refs[t].indexCol[pos], row, 1)
			if t > 0 {
				if q, ok := p.builders[t-1].at[x.ID()]; ok {
					e.AddColEntry(refs[t-1].indexCol[q], row, -1)
				}
			}
			if write {
				p.migCols[t][pos] = col
			}
		}
	}
}

// phase2 derives paper §V's second program from the first: the same
// program with the leading row Σ c_j·x_j ≤ cost + slack, c being phase
// 1's objective, and the objective 1 on every presence column and 0
// elsewhere, so that it minimizes the number of paid column families at
// the pinned workload cost (free families enter the schema only when a
// chosen plan uses them, so they need no minimization). One interval
// only: a series has no phase 2. Each column's cost coefficient goes
// right after the entries a row-first build would have created the
// column with: after a presence column's storage entry, and last on a
// plan column, which takes no entry after it is created.
func (p *Prepared) phase2(cost float64) *bip.Program {
	slack := math.Max(1e-6, 1e-9*math.Abs(cost))
	obj := make([]float64, p.prog.NumCols())
	for _, col := range p.refs[0].indexCol {
		if col >= 0 {
			obj[col] = 1
		}
	}
	lead := 0 // a presence column's entries before its cost
	if p.opt.SpaceBudgetBytes > 0 {
		lead = 1
	}
	return p.prog.PinObjective(cost+slack, obj, func(col, k int) int {
		if obj[col] != 0 {
			return lead
		}
		return k
	})
}

// solve runs the solver phases and returns the point to extract,
// which p.refs maps, and each interval's unscaled workload cost. Phase 1
// minimizes workload cost (plus migration charges across intervals). One
// interval then pins that cost and minimizes the number of paid column
// families (paper §V) over the program phase2 derives from phase 1's; a
// series has no phase 2, since with migration charges in the objective
// gratuitous families already cost their build, and it follows its
// presence assignment literally, so the migrations reported are exactly
// the ones charged. A phase-2 failure is not an error: the phase-1
// assignment is already optimal in cost. A cancelled or timed-out phase
// 2 is, since the caller asked for no answer.
func (p *Prepared) solve(sr *SeriesRecommendation) ([]float64, []float64, error) {
	opt := p.opt
	phase1 := opt.BIP
	phase1.Incumbent = p.incumbent
	t := time.Now()
	sp := opt.Trace.Begin("solve phase 1", "advisor")
	res1, err := p.prog.Solve(phase1)
	sr.Timings.BIPSolving = time.Since(t)
	if err != nil {
		sp.End()
		return nil, nil, fmt.Errorf("search: phase 1 solve: %w", err)
	}
	sr.Stats.Phase1 = endSolve(sp, res1)
	if !res1.HasSolution {
		if res1.Status == bip.Infeasible {
			return nil, nil, fmt.Errorf("search: phase 1 %v: %w", res1.Status, ErrInfeasible)
		}
		// Branch and bound adopts a feasible seed, so the greedy start was
		// infeasible: say by how much, since a budget below its schema's
		// size is the usual reason.
		budget := "no space budget"
		if b := opt.SpaceBudgetBytes; b > 0 {
			budget = fmt.Sprintf("a space budget of %.1f MB", b/1e6)
		}
		return nil, nil, fmt.Errorf("search: phase 1 %v: no feasible schema: the search started with no incumbent, the greedy start's schema taking %.1f MB against %s",
			res1.Status, p.startBytes/1e6, budget)
	}
	sr.Stats.Nodes = res1.Nodes
	if len(p.builders) > 1 {
		costs := make([]float64, len(p.builders))
		for col, raw := range p.colRaw {
			if res1.X[col] >= 0.5 {
				costs[p.colPhase[col]] += raw
			}
		}
		return res1.X, costs, nil
	}
	costs := []float64{res1.Objective}

	t = time.Now()
	sp = opt.Trace.Begin("formulate phase 2", "advisor")
	prog2 := p.phase2(res1.Objective)
	sr.Timings.BIPConstruction += time.Since(t)
	sp.End()

	// Phase 2's program is phase 1's with the cost row in front, and
	// phase 1's root relaxation costs no more than its incumbent, so its
	// root basis with the cost row's slack basic is primal feasible there.
	phase2 := opt.BIP
	phase2.Incumbent = res1.X
	phase2.RootBasis = res1.RootBasis
	t = time.Now()
	sp = opt.Trace.Begin("solve phase 2", "advisor")
	res2, err := prog2.Solve(phase2)
	sr.Timings.BIPSolving += time.Since(t)
	if err != nil {
		sp.End()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, nil, fmt.Errorf("search: phase 2 solve: %w", err)
		}
		return res1.X, costs, nil
	}
	sr.Stats.Phase2 = endSolve(sp, res2)
	if !res2.HasSolution {
		return res1.X, costs, nil
	}
	sr.Stats.Nodes += res2.Nodes
	return res2.X, costs, nil
}

// evaluated is solve's counterpart for a pinned pool: with every
// family present there is nothing to search, so the start point, which
// evaluate built, is the answer, priced by the program's own Eval. A
// schema that breaks the space budget is the one way it can fail.
func (p *Prepared) evaluated() ([]float64, []float64, error) {
	cost, ok := p.prog.Eval(p.incumbent)
	if !ok {
		return nil, nil, fmt.Errorf("search: the pinned schema takes %.1f MB against a space budget of %.1f MB: %w",
			p.startBytes/1e6, p.opt.SpaceBudgetBytes/1e6, ErrInfeasible)
	}
	return p.incumbent, []float64{cost}, nil
}

// Solve runs the solver phases exactly as Advise does (phase 2's program
// is derived from phase 1's here, so the split of work between
// construction and solving is Advise's too) and discards the assignment.
func (p *Prepared) Solve() error {
	_, _, err := p.solve(&SeriesRecommendation{})
	return err
}

// extract decodes the assignment into one recommendation per interval
// and the migration schedule, accumulating costs in interval order so
// the reported numbers are bit-identical across runs and worker counts.
// One interval charges no migration.
func (p *Prepared) extract(x []float64, costs []float64, sr *SeriesRecommendation) error {
	var prev *schema.Schema
	for t, b := range p.builders {
		rec := &Recommendation{Cost: costs[t]}
		if err := b.extract(x, p.refs[t], rec); err != nil {
			if p.phases != nil {
				err = fmt.Errorf("search: phase %q: %w", p.phases[t].Name, err)
			}
			return err
		}
		pr := &PhaseRecommendation{Rec: rec, Share: p.shares[t]}
		pr.Build, pr.Drop = migrate.Diff(prev, rec.Schema)
		if p.phases != nil {
			pr.Phase = p.phases[t]
		}
		if p.migCols != nil {
			pr.MigrationCost = migrate.EstimatedCost(pr.Build, p.opt.Migration)
		}
		sr.Phases = append(sr.Phases, pr)
		sr.WorkloadCost += pr.Share * rec.Cost
		sr.MigrationCost += pr.MigrationCost
		prev = rec.Schema
	}
	sr.TotalCost = sr.WorkloadCost + sr.MigrationCost
	return nil
}
