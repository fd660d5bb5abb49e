// Package search is the schema optimizer (paper §V, §VI-D): it
// enumerates candidates, generates plan spaces, formulates column
// family selection as a binary integer program, solves it in two phases
// (minimum workload cost, then fewest column families at that cost),
// and extracts the recommended schema plus one implementation plan per
// statement.
package search

import (
	"context"
	"errors"
	"time"

	"nose/internal/bip"
	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/migrate"
	"nose/internal/obs"
	"nose/internal/par"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/workload"
)

// ErrInfeasible is wrapped by the error Advise or AdviseSeries returns
// when phase 1 proves that no schema satisfies the constraints, as when
// no covering schema fits a space budget, and by AdvisePinned's when the
// pinned schema breaks the budget. A node limit reached before any
// schema was found proves nothing and does not wrap it.
var ErrInfeasible = errors.New("no feasible schema")

// Options configures an advisor run.
type Options struct {
	// Workers bounds the goroutines fanned across plan-space
	// generation and the LP relaxations inside the branch and bound
	// solver; candidate enumeration runs on the calling goroutine. Zero
	// or negative means runtime.NumCPU(). The recommendation — schema,
	// plans, objective — is bit-identical for every value; workers only
	// change wall-clock time.
	Workers int
	// CostModel prices plan operations; nil means cost.Default().
	CostModel cost.Model
	// Planner tunes plan-space generation.
	Planner planner.Config
	// Enumerator toggles optional enumeration steps (ablation).
	Enumerator enumerator.Features
	// MaxSupportPlans bounds the plan space of each support query;
	// zero means DefaultMaxSupportPlans.
	MaxSupportPlans int
	// SpaceBudgetBytes, when positive, constrains the total estimated
	// size of the recommended column families (paper §III-D's optional
	// space constraint).
	SpaceBudgetBytes float64
	// BIP tunes the integer solver.
	BIP bip.Options
	// Migration prices the column family builds AdviseSeries charges at
	// phase boundaries; the zero value means
	// migrate.DefaultCostParams(). Ignored by Advise.
	Migration migrate.CostParams
	// Ctx, when non-nil, cancels an in-flight advise: it is checked at
	// every enumeration batch, at each plan-space fan-out item, and at
	// every branch-and-bound batch boundary, so Advise and AdviseSeries
	// return Ctx.Err() promptly (errors.Is recognizes context.Canceled
	// / DeadlineExceeded) instead of finishing the solve. Cancellation
	// is clean: no partial recommendation is returned and nothing
	// outlives the call, so the same workload can be advised again.
	// Nil means context.Background() (never cancelled).
	Ctx context.Context
	// Obs, when non-nil, receives pipeline metrics: deterministic
	// search.*/enum.*/planner.*/bip.*/lp.* counters and wall-clock stage
	// gauges. Nil disables metrics at no cost.
	Obs *obs.Registry
	// Trace, when non-nil, records one wall-clock span per advisor
	// stage, viewable in about:tracing/Perfetto.
	Trace *obs.Tracer
}

// DefaultMaxSupportPlans bounds support-query plan spaces.
const DefaultMaxSupportPlans = 8

// Timings breaks down where an advisor run spent its time, mirroring
// the categories of paper Fig. 13.
type Timings struct {
	// Enumeration covers candidate enumeration (Algorithm 1).
	Enumeration time.Duration
	// CostCalculation covers plan-space generation and cost
	// estimation.
	CostCalculation time.Duration
	// BIPConstruction covers formulating the integer program.
	BIPConstruction time.Duration
	// BIPSolving covers the integer solves (both phases).
	BIPSolving time.Duration
	// Other covers extraction and bookkeeping.
	Other time.Duration
	// Total is the end-to-end advisor time.
	Total time.Duration
}

// Stats reports the size of the optimization problem.
type Stats struct {
	// Candidates is the number of enumerated column families.
	Candidates int
	// PlanVariables is the number of plan-choice binary variables.
	PlanVariables int
	// Constraints is the number of BIP rows.
	Constraints int
	// Nodes is the number of branch and bound nodes explored.
	Nodes int
	// Phase1 and Phase2 report how the two solver phases ended (a
	// series has one joint solve, reported as Phase1). A phase stopped
	// at the node limit recommends its best incumbent, which is not
	// proven optimal: Gap bounds how far off it can be.
	Phase1, Phase2 Solve
}

// Solve is how one branch and bound solve ended.
type Solve struct {
	// Ran is false for a phase that was skipped or failed.
	Ran bool
	// Status is bip.Optimal for a search that ran to completion and
	// bip.NodeLimit for one truncated at Options.BIP.MaxNodes.
	Status bip.Status
	// Gap is the relative gap between the solve's incumbent and its best
	// proven bound: zero when Status is bip.Optimal.
	Gap float64
	// Nodes is the number of branch and bound nodes the solve explored.
	Nodes int
}

// endSolve closes a solve's span with its node count, status and gap,
// and returns the same outcome for Stats.
func endSolve(sp *obs.Span, res *bip.Result) Solve {
	out := Solve{Ran: true, Status: res.Status, Nodes: res.Nodes}
	sp.SetArg("nodes", res.Nodes).SetArg("status", res.Status.String())
	if res.HasSolution {
		out.Gap = res.Gap()
		sp.SetArg("gap", out.Gap)
	}
	sp.End()
	return out
}

// QueryRecommendation pairs a workload query with its chosen plan.
type QueryRecommendation struct {
	// Statement is the workload entry.
	Statement *workload.WeightedStatement
	// Plan is the recommended implementation plan.
	Plan *planner.Plan
}

// UpdateRecommendation describes how one write statement maintains one
// recommended column family.
type UpdateRecommendation struct {
	// Statement is the workload entry.
	Statement *workload.WeightedStatement
	// Plan carries the write-side costs for the maintained family.
	Plan *planner.UpdatePlan
	// SupportPlans are the chosen plans for the update's support
	// queries.
	SupportPlans []*planner.Plan
}

// Recommendation is the advisor's output: the schema, one plan per
// query, the update maintenance plans, and run statistics.
type Recommendation struct {
	// Schema holds the recommended column families.
	Schema *schema.Schema
	// Queries holds one entry per workload query, in workload order.
	Queries []*QueryRecommendation
	// Updates holds one entry per (write statement, maintained family)
	// pair.
	Updates []*UpdateRecommendation
	// Cost is the weighted workload cost of the recommendation under the
	// cost model: the optimum found, or a pinned schema's evaluated cost.
	Cost float64
	// Timings breaks down the advisor runtime.
	Timings Timings
	// Stats reports problem sizes.
	Stats Stats
}

// withDefaults resolves zero-valued options: the default cost model,
// support-plan bound, migration prices, and worker count (spread to the
// BIP solver).
func (opt Options) withDefaults() Options {
	if opt.CostModel == nil {
		opt.CostModel = cost.Default()
	}
	if opt.MaxSupportPlans <= 0 {
		opt.MaxSupportPlans = DefaultMaxSupportPlans
	}
	opt.Workers = par.Workers(opt.Workers)
	opt.BIP.Workers = opt.Workers
	opt.BIP.Obs = opt.Obs
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	opt.BIP.Ctx = opt.Ctx
	if opt.Migration == (migrate.CostParams{}) {
		opt.Migration = migrate.DefaultCostParams()
	}
	return opt
}

// Advise runs the full pipeline on a workload and returns the
// recommendation: the static problem is a one-interval series.
func Advise(w *workload.Workload, opt Options) (*Recommendation, error) {
	sr, err := advise(w, nil, nil, opt)
	if err != nil {
		return nil, err
	}
	return sr.Phases[0].Rec, nil
}

// AdvisePinned evaluates the advisor's program at a fixed schema, as the
// paper's baselines (§VII-A) are evaluated: every family of pool is
// installed and maintained whether or not a plan reads it, and each
// query and support query takes its cheapest plan over the pool. The
// baselines are thereby planned, priced and filtered by the same code as
// a recommendation, and Cost, the program's objective at that point,
// prices each support plan once per group. With every family present
// there is nothing to search: no solver phase runs, and a schema larger
// than Options.SpaceBudgetBytes returns an error wrapping ErrInfeasible.
func AdvisePinned(w *workload.Workload, pool *enumerator.Pool, opt Options) (*Recommendation, error) {
	sr, err := advise(w, nil, pool, opt)
	if err != nil {
		return nil, err
	}
	return sr.Phases[0].Rec, nil
}

// advise is the one advisor driver. It solves w itself when phases is
// nil and w.ForPhase(p) for each phase otherwise: one interval is paper
// §V's static problem, several are the joint series program (see
// AdviseSeries). It enumerates candidates once, or takes pinned as the
// schema every family of which is present (see AdvisePinned), then runs
// Prepared's stages — plan and formulate, then solve, or for a pinned
// pool evaluate, then extract — recording the run's timings, problem
// sizes, spans and metrics.
func advise(w *workload.Workload, phases []*workload.Phase, pinned *enumerator.Pool, opt Options) (*SeriesRecommendation, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	start := time.Now()
	sr := &SeriesRecommendation{}
	rootName := "advise"
	if phases != nil {
		rootName = "advise-series"
	}
	root := opt.Trace.Begin(rootName, "advisor")
	defer root.End()
	defer publishRun(opt, phases != nil, sr)

	// Candidate enumeration (Algorithm 1), once over every statement
	// active in any interval: weights do not enter it.
	enumRes := &enumerator.Result{Pool: pinned}
	if pinned == nil {
		t := time.Now()
		sp := opt.Trace.Begin("enumerate", "advisor")
		ew := w
		if phases != nil {
			ew = unionWorkload(w)
		}
		var err error
		enumRes, err = enumerator.EnumerateWorkloadCtx(opt.Ctx, ew, opt.Enumerator, opt.Obs)
		if err != nil {
			sp.End()
			return nil, err
		}
		sr.Timings.Enumeration = time.Since(t)
		sp.SetArg("candidates", enumRes.Pool.Len()).End()
	}
	sr.Stats.Candidates = enumRes.Pool.Len()
	opt.Obs.Counter("search.candidates").Add(int64(sr.Stats.Candidates))

	p, err := prepare(w, phases, enumRes, pinned != nil, opt, sr)
	if err != nil {
		return nil, err
	}
	var x, costs []float64
	if pinned == nil {
		x, costs, err = p.solve(sr)
	} else {
		x, costs, err = p.evaluated()
	}
	if err != nil {
		return nil, err
	}
	var pruned, cuts int
	for _, b := range p.builders {
		pruned += b.prunedPlans
		cuts += b.cuts
	}
	opt.Obs.Counter("search.plans_pruned_dominated").Add(int64(pruned))
	opt.Obs.Counter("search.cuts").Add(int64(cuts))

	t := time.Now()
	sp := opt.Trace.Begin("extract", "advisor")
	if err := p.extract(x, costs, sr); err != nil {
		sp.End()
		return nil, err
	}
	sr.Timings.Other = time.Since(t)
	sr.Timings.Total = time.Since(start)
	sp.End()
	if len(sr.Phases) == 1 {
		sr.Phases[0].Rec.Timings, sr.Phases[0].Rec.Stats = sr.Timings, sr.Stats
	}
	return sr, nil
}

// publishRun records the run-level metrics that are only known at the
// end: each solver phase, wall-clock stage gauges and, for a series,
// its phases and migrations.
func publishRun(opt Options, series bool, sr *SeriesRecommendation) {
	if opt.Obs == nil {
		return
	}
	publishSolve(opt.Obs, "phase1", sr.Stats.Phase1)
	publishSolve(opt.Obs, "phase2", sr.Stats.Phase2)
	publishTimings(opt.Obs, sr.Timings)
	if !series {
		opt.Obs.Counter("search.advise_runs").Inc()
		return
	}
	opt.Obs.Counter("search.advise_series_runs").Inc()
	opt.Obs.Counter("search.series_phases").Add(int64(len(sr.Phases)))
	migrations := 0
	for t, pr := range sr.Phases {
		if t > 0 && len(pr.Build) > 0 {
			migrations++
		}
	}
	opt.Obs.Counter("search.series_migrations").Add(int64(migrations))
	opt.Obs.Gauge("search.series_migration_cost").Add(sr.MigrationCost)
}

// publishSolve counts one solver phase, its nodes, whether it was
// truncated, and adds its gap to the phase's gauge (the sum over a registry's runs;
// -solver-stats divides it by the truncated count).
func publishSolve(r *obs.Registry, phase string, s Solve) {
	if !s.Ran {
		return
	}
	r.Counter("search." + phase + ".solves").Inc()
	r.Counter("search." + phase + ".nodes").Add(int64(s.Nodes))
	if s.Status == bip.NodeLimit {
		r.Counter("search." + phase + ".node_limit").Inc()
	}
	r.Gauge("search." + phase + ".gap").Add(s.Gap)
}

// publishTimings adds a run's wall-clock stage times to the stage
// gauges.
func publishTimings(r *obs.Registry, t Timings) {
	g := func(name string, d time.Duration) {
		r.Gauge(name).Add(float64(d.Nanoseconds()) / 1e6)
	}
	g("search.wall_ms.enumeration", t.Enumeration)
	g("search.wall_ms.cost_calculation", t.CostCalculation)
	g("search.wall_ms.bip_construction", t.BIPConstruction)
	g("search.wall_ms.bip_solving", t.BIPSolving)
	g("search.wall_ms.total", t.Total)
}
