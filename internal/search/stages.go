package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"nose/internal/bip"
	"nose/internal/enumerator"
	"nose/internal/lp"
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
	return p.plan(w, enumRes)
}

// Prepared is the advisor pipeline between enumeration and the answer:
// every interval planned, the phase-1 program formulated and its greedy
// warm start built. Its stages are formulate, solve and extract; advise
// runs them once, and benchmarks re-run solve to time the branch and
// bound phases in isolation.
type Prepared struct {
	opt    Options
	phases []*workload.Phase // nil for a static workload
	// pinned is set when every pool family is present (AdvisePinned).
	pinned bool
	// builders holds one planned interval each; shares is each
	// interval's share of the timeline (1 for a static workload).
	builders []*builder
	shares   []float64

	prog      *bip.Program
	refs      []*colRefs // per interval; indexCol is its presence columns
	incumbent []float64

	// With several intervals: each interval's migration column per
	// family ID, and the per-column sink of the intervals' columns (they
	// precede every migration column), so post-solve cost sums
	// accumulate in creation order.
	migCols  []map[string]int
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
// (minimize weighted workload cost) and builds its greedy warm start,
// recording stage times and the problem size in sr.
func prepare(w *workload.Workload, phases []*workload.Phase, enumRes *enumerator.Result, pinned bool, opt Options, sr *SeriesRecommendation) (*Prepared, error) {
	p := &Prepared{opt: opt, phases: phases, pinned: pinned}
	t := time.Now()
	sp := opt.Trace.Begin("plan-spaces", "advisor")
	if err := p.plan(w, enumRes); err != nil {
		sp.End()
		return nil, err
	}
	sr.Timings.CostCalculation = time.Since(t)
	sp.End()

	t = time.Now()
	sp = opt.Trace.Begin("formulate", "advisor")
	p.prog, p.refs = p.formulate(nil)
	sr.Timings.BIPConstruction = time.Since(t)
	for _, refs := range p.refs {
		sr.Stats.PlanVariables += len(refs.planCols)
	}
	sr.Stats.Constraints = p.prog.NumRows()
	sp.SetArg("plan_variables", sr.Stats.PlanVariables).
		SetArg("constraints", sr.Stats.Constraints).End()
	opt.Obs.Counter("search.plan_variables").Add(int64(sr.Stats.PlanVariables))
	opt.Obs.Counter("search.constraints").Add(int64(sr.Stats.Constraints))

	// The greedy start: each interval takes its greedy assignment, and
	// migration columns cover the presence transitions between them.
	p.incumbent = make([]float64, p.prog.NumCols())
	var prev map[string]bool
	for t, b := range p.builders {
		selected := b.greedyPhase(p.incumbent, p.refs[t])
		for id := range selected {
			if p.migCols != nil && !prev[id] {
				p.incumbent[p.migCols[t][id]] = 1
			}
		}
		prev = selected
	}
	return p, nil
}

// plan is the planning stage: one planner over enumRes's pool — so
// schema.Index pointers are shared, and column family identity and
// naming are stable across a series — and one builder per interval.
func (p *Prepared) plan(w *workload.Workload, enumRes *enumerator.Result) error {
	pl := planner.New(enumRes.Pool, p.opt.CostModel, p.opt.Planner)
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
		b, err := newBuilder(iw, pl, enumRes, p.pinned, p.opt)
		if err != nil {
			if p.phases != nil {
				err = fmt.Errorf("search: phase %q: %w", p.phases[i].Name, err)
			}
			return err
		}
		b.paidAll = len(intervals) > 1
		p.builders = append(p.builders, b)
	}
	publishPlanner(p.opt.Obs, pl.Counts())
	return nil
}

// formulate builds the program: every interval's formulation, its
// objective scaled by the interval's share. With pinCost nil it
// minimizes weighted workload cost; with pinCost set (one interval
// only) it constrains the cost to that value and minimizes the number of
// paid column families (paper §V's second phase; free families enter
// the schema only when a chosen plan uses them, so they need no
// minimization). Several intervals are linked by one migration column
// per (interval, candidate),
//
//	y[t][i] − y[t−1][i] − m[t][i] ≤ 0,
//
// so m[t][i] covers any presence not inherited from the previous
// interval. The first interval inherits nothing, so its whole schema is
// charged as the initial build.
func (p *Prepared) formulate(pinCost *float64) (*bip.Program, []*colRefs) {
	prog := bip.New()
	costRow := -1
	if pinCost != nil {
		slack := math.Max(1e-6, 1e-9*math.Abs(*pinCost))
		costRow = prog.AddRow(math.Inf(-1), *pinCost+slack)
	}
	series := len(p.builders) > 1
	refs := make([]*colRefs, len(p.builders))
	for t, b := range p.builders {
		var sink func(raw float64)
		if series {
			sink = func(raw float64) {
				p.colPhase = append(p.colPhase, t)
				p.colRaw = append(p.colRaw, raw)
			}
		}
		refs[t] = b.formulatePhase(prog, p.shares[t], costRow, sink)
	}
	if !series {
		return prog, refs
	}
	for t, b := range p.builders {
		mcols := map[string]int{}
		p.migCols = append(p.migCols, mcols)
		for _, x := range b.pool {
			id := x.ID()
			row := prog.AddRow(math.Inf(-1), 0)
			mcols[id] = prog.AddBinary(migrate.BuildCost(x, p.opt.Migration), lp.Entry{Row: row, Coef: -1})
			prog.AddColEntry(refs[t].indexCol[id], row, 1)
			if t > 0 {
				if prev, ok := refs[t-1].indexCol[id]; ok {
					prog.AddColEntry(prev, row, -1)
				}
			}
		}
	}
	return prog, refs
}

// solve runs the solver phases and returns the assignment to extract,
// the column maps it is expressed in, and each interval's unscaled
// workload cost. Phase 1 minimizes workload cost (plus migration charges
// across intervals). One interval then pins that cost and minimizes the
// number of paid column families (paper §V); a series has no phase 2,
// since with migration charges in the objective gratuitous families
// already cost their build, and it follows its presence assignment
// literally, so the migrations reported are exactly the ones charged.
// A phase-2 failure is not an error: the phase-1 assignment is already
// optimal in cost. A cancelled or timed-out phase 2 is, since the caller
// asked for no answer.
func (p *Prepared) solve(sr *SeriesRecommendation) (*bip.Result, []*colRefs, []float64, error) {
	opt := p.opt
	phase1 := opt.BIP
	phase1.Incumbent = p.incumbent
	t := time.Now()
	sp := opt.Trace.Begin("solve phase 1", "advisor")
	res1, err := p.prog.Solve(phase1)
	sr.Timings.BIPSolving = time.Since(t)
	if err != nil {
		sp.End()
		return nil, nil, nil, fmt.Errorf("search: phase 1 solve: %w", err)
	}
	sr.Stats.Phase1 = endSolve(sp, res1)
	if !res1.HasSolution {
		if res1.Status == bip.Infeasible {
			return nil, nil, nil, fmt.Errorf("search: phase 1 %v: %w", res1.Status, ErrInfeasible)
		}
		return nil, nil, nil, fmt.Errorf("search: phase 1 %v: no feasible schema", res1.Status)
	}
	sr.Stats.Nodes = res1.Nodes
	if len(p.builders) > 1 {
		costs := make([]float64, len(p.builders))
		for col, raw := range p.colRaw {
			if res1.X[col] >= 0.5 {
				costs[p.colPhase[col]] += raw
			}
		}
		return res1, p.refs, costs, nil
	}
	costs := []float64{res1.Objective}
	if p.pinned {
		return res1, p.refs, costs, nil
	}

	t = time.Now()
	sp = opt.Trace.Begin("formulate phase 2", "advisor")
	prog2, refs2 := p.formulate(&res1.Objective)
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
			return nil, nil, nil, fmt.Errorf("search: phase 2 solve: %w", err)
		}
		return res1, p.refs, costs, nil
	}
	sr.Stats.Phase2 = endSolve(sp, res2)
	if !res2.HasSolution {
		return res1, p.refs, costs, nil
	}
	sr.Stats.Nodes += res2.Nodes
	return res2, refs2, costs, nil
}

// Solve runs the solver phases exactly as Advise does (the phase-2
// program is formulated here, so the split of work between construction
// and solving is Advise's too) and discards the assignment.
func (p *Prepared) Solve() error {
	_, _, _, err := p.solve(&SeriesRecommendation{})
	return err
}

// extract decodes the assignment into one recommendation per interval
// and the migration schedule, accumulating costs in interval order so
// the reported numbers are bit-identical across runs and worker counts.
// One interval charges no migration.
func (p *Prepared) extract(res *bip.Result, refs []*colRefs, costs []float64, sr *SeriesRecommendation) error {
	var prev *schema.Schema
	for t, b := range p.builders {
		rec := &Recommendation{Cost: costs[t]}
		if err := b.extract(res, refs[t], rec); err != nil {
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
