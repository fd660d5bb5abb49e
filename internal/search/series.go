package search

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"nose/internal/bip"
	"nose/internal/enumerator"
	"nose/internal/lp"
	"nose/internal/migrate"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/workload"
)

// PhaseRecommendation is one interval of a schema series: the phase,
// its full single-workload recommendation, and the migration entering
// the phase.
type PhaseRecommendation struct {
	// Phase is the workload interval; nil when the input workload had
	// no phases.
	Phase *workload.Phase
	// Rec is the phase's schema and plans. Rec.Cost is the phase's
	// weighted workload cost (unscaled by duration), comparable to what
	// Advise on the phase's workload alone would report.
	Rec *Recommendation
	// Build and Drop are the column families the migration entering
	// this phase must build and may drop, relative to the previous
	// phase's schema. The first phase builds its entire schema.
	Build, Drop []*schema.Index
	// MigrationCost is the estimated charge for Build under the
	// migration cost parameters. Drops are free.
	MigrationCost float64
}

// SeriesRecommendation is the advisor's output for a time-dependent
// workload: one recommendation per phase plus the migration schedule
// linking them.
type SeriesRecommendation struct {
	// Phases holds one entry per workload phase, in timeline order.
	Phases []*PhaseRecommendation
	// WorkloadCost is the duration-weighted workload cost across the
	// timeline: sum over phases of share·Rec.Cost.
	WorkloadCost float64
	// MigrationCost totals the estimated build charges, including the
	// first phase's initial installation — pre-building every family up
	// front is priced the same as building it later, so the solver has
	// no free lunch.
	MigrationCost float64
	// TotalCost is WorkloadCost + MigrationCost: the solver's joint
	// objective.
	TotalCost float64
	// Timings aggregates stage times across the whole series run.
	Timings Timings
	// Stats aggregates problem sizes across all phases.
	Stats Stats
}

// AdviseSeries solves the multi-interval schema problem for a workload
// with phases (paper extension: Wakuta & Mior et al., "NoSQL Schema
// Design for Time-Dependent Workloads"). Candidates are enumerated once
// over the union of all phases; each phase then gets its own plan
// spaces and its own presence and plan-choice variables in one joint
// BIP, with adjacent phases linked by migration variables
//
//	y[t][i] − y[t−1][i] − m[t][i] ≤ 0
//
// whose objective coefficient is the estimated cost of building column
// family i from the base data (migrate.BuildCost, derived from the
// schema size statistics). Minimizing workload cost plus migration
// charges decides both the per-phase schemas and when changing them
// pays for itself.
//
// A workload with zero or one phase delegates to Advise — the series
// machinery reduces exactly to the static problem — so the result is
// bit-identical to the single-schema advisor and no migration is
// charged (there is no series decision for it to influence). Like
// Advise, the result is bit-identical for every worker count.
func AdviseSeries(w *workload.Workload, opt Options) (*SeriesRecommendation, error) {
	if err := w.ValidatePhases(); err != nil {
		return nil, err
	}
	if len(w.Phases) <= 1 {
		return adviseSingleSeries(w, opt)
	}
	opt = opt.withDefaults()
	mig := opt.Migration
	if mig == (migrate.CostParams{}) {
		mig = migrate.DefaultCostParams()
	}

	start := time.Now()
	sr := &SeriesRecommendation{}
	root := opt.Trace.Begin("advise-series", "advisor")
	defer root.End()
	defer publishSeries(opt, sr)

	// Enumerate once over the union workload: every statement active in
	// any phase, at its maximum phase weight. Weights only matter for
	// which statements appear; per-phase weights are applied below.
	t0 := time.Now()
	sp := opt.Trace.Begin("enumerate", "advisor")
	union := unionWorkload(w)
	enumRes, err := enumerator.EnumerateWorkloadCtx(opt.Ctx, union, opt.Enumerator, opt.Workers, opt.Obs)
	if err != nil {
		sp.End()
		return nil, err
	}
	sr.Timings.Enumeration = time.Since(t0)
	sr.Stats.Candidates = enumRes.Pool.Len()
	sp.SetArg("candidates", sr.Stats.Candidates).End()

	// One planner across all phases: schema.Index pointers are shared,
	// so column family identity — and naming — is stable across the
	// series.
	pl := planner.New(enumRes.Pool, opt.CostModel, opt.Planner)

	t0 = time.Now()
	sb := &seriesBuilder{w: w, mig: mig}
	total := w.TotalDuration()
	for i, p := range w.Phases {
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
		psp := opt.Trace.Begin(fmt.Sprintf("plan-spaces phase %d", i), "advisor")
		b, err := newBuilder(w.ForPhase(p), pl, enumRes, opt)
		if err != nil {
			psp.End()
			return nil, fmt.Errorf("search: phase %q: %w", p.Name, err)
		}
		b.paidAll = true
		sb.builders = append(sb.builders, b)
		sb.shares = append(sb.shares, p.EffectiveDuration()/total)
		psp.End()
	}
	sr.Timings.CostCalculation = time.Since(t0)
	publishPlanner(opt.Obs, pl.Counts())

	t0 = time.Now()
	sp = opt.Trace.Begin("formulate series", "advisor")
	sb.formulate()
	sr.Timings.BIPConstruction = time.Since(t0)
	for _, refs := range sb.refs {
		sr.Stats.PlanVariables += len(refs.planCols)
	}
	sr.Stats.Constraints = sb.prog.NumRows()
	sp.SetArg("plan_variables", sr.Stats.PlanVariables).
		SetArg("constraints", sr.Stats.Constraints).End()

	solveOpts := opt.BIP
	solveOpts.Incumbent = sb.greedyIncumbent()
	t0 = time.Now()
	sp = opt.Trace.Begin("solve series", "advisor")
	res, err := sb.prog.Solve(solveOpts)
	sr.Timings.BIPSolving = time.Since(t0)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("search: series solve: %w", err)
	}
	sr.Stats.Phase1 = endSolve(sp, res)
	if !res.HasSolution {
		return nil, fmt.Errorf("search: series %v: no feasible schema series", res.Status)
	}
	sr.Stats.Nodes = res.Nodes
	var pruned, cuts int
	for _, b := range sb.builders {
		pruned += b.prunedPlans
		cuts += b.cuts
	}
	opt.Obs.Counter("search.plans_pruned_dominated").Add(int64(pruned))
	opt.Obs.Counter("search.cuts").Add(int64(cuts))

	// Extraction: the series follows the solver's presence assignment
	// literally, so the migrations reported (and later executed) are
	// exactly the ones the objective charged. There is no second
	// minimize-schema pass: with migration charges in the objective,
	// gratuitous families already cost their build.
	t0 = time.Now()
	sp = opt.Trace.Begin("extract series", "advisor")
	if err := sb.extract(res, sr); err != nil {
		sp.End()
		return nil, err
	}
	sr.Timings.Other = time.Since(t0)
	sr.Timings.Total = time.Since(start)
	sp.End()
	return sr, nil
}

// adviseSingleSeries handles the degenerate zero- or one-phase series
// by delegating to Advise, guaranteeing bit-identical output to the
// static advisor.
func adviseSingleSeries(w *workload.Workload, opt Options) (*SeriesRecommendation, error) {
	var phase *workload.Phase
	ww := w
	if len(w.Phases) == 1 {
		phase = w.Phases[0]
		ww = w.ForPhase(phase)
	}
	rec, err := Advise(ww, opt)
	if err != nil {
		return nil, err
	}
	pr := &PhaseRecommendation{Phase: phase, Rec: rec, Build: rec.Schema.Indexes()}
	return &SeriesRecommendation{
		Phases:       []*PhaseRecommendation{pr},
		WorkloadCost: rec.Cost,
		TotalCost:    rec.Cost,
		Timings:      rec.Timings,
		Stats:        rec.Stats,
	}, nil
}

// unionWorkload flattens a phased workload to the statements active in
// any phase, each at its maximum phase weight. Statement values are
// shared with the input so enumeration results key correctly against
// the per-phase workloads.
func unionWorkload(w *workload.Workload) *workload.Workload {
	u := workload.New(w.Graph)
	for _, ws := range w.Statements {
		maxW := 0.0
		for _, p := range w.Phases {
			if pw := w.PhaseWeight(ws, p); pw > maxW {
				maxW = pw
			}
		}
		u.Statements = append(u.Statements, &workload.WeightedStatement{
			Statement: ws.Statement,
			Weight:    maxW,
		})
	}
	return u
}

// seriesBuilder links the per-phase formulations into the joint
// multi-interval program and decodes its solution. Everything inside a
// phase is builder.formulatePhase and builder.greedyPhase; what lives
// here is only what a single schema does not have: migration columns
// between adjacent phases, share-weighted cost accounting, and the
// build/drop schedule.
type seriesBuilder struct {
	w        *workload.Workload
	mig      migrate.CostParams
	builders []*builder
	shares   []float64

	prog *bip.Program
	refs []*colRefs // per phase; indexCol is that phase's y columns

	// Per-column bookkeeping for the phases' columns, indexed by BIP
	// column (they precede every migration column), so post-solve sums
	// accumulate in creation order.
	colPhase []int     // owning phase
	colRaw   []float64 // unscaled in-phase workload cost contribution

	migCols []map[string]int // per phase: index ID -> migration column
}

// formulate builds the joint BIP: each phase's formulation with its
// objective scaled by the phase's duration share, then one migration
// variable per (phase, candidate) linking adjacent phases' presence.
func (sb *seriesBuilder) formulate() {
	sb.prog = bip.New()
	for t, b := range sb.builders {
		sb.refs = append(sb.refs, b.formulatePhase(sb.prog, sb.shares[t], -1, func(raw float64) {
			sb.colPhase = append(sb.colPhase, t)
			sb.colRaw = append(sb.colRaw, raw)
		}))
	}

	// Migration linking: m[t][i] must cover any presence not inherited
	// from the previous phase. The first phase inherits nothing, so its
	// whole schema is charged as the initial build.
	for t, b := range sb.builders {
		mcols := map[string]int{}
		sb.migCols = append(sb.migCols, mcols)
		for _, x := range b.pool {
			id := x.ID()
			row := sb.prog.AddRow(math.Inf(-1), 0)
			mcols[id] = sb.prog.AddBinary(migrate.BuildCost(x, sb.mig), lp.Entry{Row: row, Coef: -1})
			sb.prog.AddColEntry(sb.refs[t].indexCol[id], row, 1)
			if t > 0 {
				if prev, ok := sb.refs[t-1].indexCol[id]; ok {
					sb.prog.AddColEntry(prev, row, -1)
				}
			}
		}
	}
}

// greedyIncumbent warm-starts the joint solve: each phase takes its
// greedy assignment, and migration variables cover the resulting
// presence transitions.
func (sb *seriesBuilder) greedyIncumbent() []float64 {
	x := make([]float64, sb.prog.NumCols())
	prev := map[string]bool{}
	for t, b := range sb.builders {
		selected := b.greedyPhase(x, sb.refs[t])
		for id := range selected {
			if !prev[id] {
				x[sb.migCols[t][id]] = 1
			}
		}
		prev = selected
	}
	return x
}

// extract decodes the joint solution into per-phase recommendations and
// the migration schedule, accumulating costs in column order so the
// reported numbers are bit-identical across runs and worker counts.
func (sb *seriesBuilder) extract(res *bip.Result, sr *SeriesRecommendation) error {
	phaseCost := make([]float64, len(sb.builders))
	for col, raw := range sb.colRaw {
		if res.X[col] >= 0.5 {
			phaseCost[sb.colPhase[col]] += raw
		}
	}

	var prevSchema *schema.Schema
	for t, b := range sb.builders {
		rec := &Recommendation{}
		if err := b.extract(res, sb.refs[t], rec); err != nil {
			return fmt.Errorf("search: phase %q: %w", sb.w.Phases[t].Name, err)
		}
		rec.Cost = phaseCost[t]
		build, drop := migrate.Diff(prevSchema, rec.Schema)
		pr := &PhaseRecommendation{
			Phase:         sb.w.Phases[t],
			Rec:           rec,
			Build:         build,
			Drop:          drop,
			MigrationCost: migrate.EstimatedCost(build, sb.mig),
		}
		sr.Phases = append(sr.Phases, pr)
		sr.WorkloadCost += sb.shares[t] * phaseCost[t]
		sr.MigrationCost += pr.MigrationCost
		prevSchema = rec.Schema
	}
	sr.TotalCost = sr.WorkloadCost + sr.MigrationCost
	return nil
}

// publishSeries records the series-level metrics known only at the end.
func publishSeries(opt Options, sr *SeriesRecommendation) {
	if opt.Obs == nil {
		return
	}
	opt.Obs.Counter("search.advise_series_runs").Inc()
	opt.Obs.Counter("search.series_phases").Add(int64(len(sr.Phases)))
	opt.Obs.Counter("search.nodes").Add(int64(sr.Stats.Nodes))
	publishSolve(opt.Obs, "phase1", sr.Stats.Phase1)
	migrations := 0
	for t, pr := range sr.Phases {
		if t > 0 && len(pr.Build) > 0 {
			migrations++
		}
	}
	opt.Obs.Counter("search.series_migrations").Add(int64(migrations))
	opt.Obs.Gauge("search.series_migration_cost").Add(sr.MigrationCost)
	publishTimings(opt.Obs, sr.Timings)
}

// Format renders the schema series as the nose CLI prints it: one block
// per phase with its migration points, schema, and costs, followed by
// the series totals.
func (sr *SeriesRecommendation) Format() string {
	var b strings.Builder
	for i, pr := range sr.Phases {
		name := "workload"
		dur := 1.0
		if pr.Phase != nil {
			name = pr.Phase.Name
			dur = pr.Phase.EffectiveDuration()
		}
		fmt.Fprintf(&b, "phase %d: %s (duration %g)\n", i, name, dur)
		if len(pr.Build) > 0 {
			fmt.Fprintf(&b, "  build: %s\n", indexNames(pr.Build))
		}
		if len(pr.Drop) > 0 {
			fmt.Fprintf(&b, "  drop:  %s\n", indexNames(pr.Drop))
		}
		fmt.Fprintf(&b, "  migration cost: %.3f\n", pr.MigrationCost)
		fmt.Fprintf(&b, "  workload cost:  %.3f\n", pr.Rec.Cost)
		fmt.Fprintf(&b, "  schema (%d column families):\n", pr.Rec.Schema.Len())
		for _, line := range strings.Split(strings.TrimRight(pr.Rec.Schema.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	fmt.Fprintf(&b, "series: workload cost %.3f + migration cost %.3f = total %.3f\n",
		sr.WorkloadCost, sr.MigrationCost, sr.TotalCost)
	return b.String()
}

func indexNames(xs []*schema.Index) string {
	names := make([]string, len(xs))
	for i, x := range xs {
		names[i] = x.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
