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
	"fmt"
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

// ErrInfeasible is wrapped by the error Advise returns when phase 1
// proves that no schema satisfies the constraints, as when no covering
// schema fits a space budget. A node limit reached before any schema
// was found proves nothing and does not wrap it.
var ErrInfeasible = errors.New("no feasible schema")

// Options configures an advisor run.
type Options struct {
	// Workers bounds the goroutines fanned across the pipeline:
	// candidate enumeration, plan-space generation, and the LP
	// relaxations inside the branch and bound solver. Zero or negative
	// means runtime.NumCPU(). The recommendation — schema, plans,
	// objective — is bit-identical for every value; workers only change
	// wall-clock time.
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
	// SkipMinimizeSchema disables the second solver phase that
	// minimizes the number of column families at optimal cost.
	SkipMinimizeSchema bool
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
	// search.*/enum.*/bip.*/lp.* counters and wall-clock stage gauges.
	// Nil disables metrics at no cost.
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
	// Alternatives are every plan from the query's plan space that is
	// executable against the recommended schema (all its column
	// families are installed), cheapest first and including Plan. The
	// harness uses them for plan-level failover when a column family is
	// down: NoSE's index redundancy means a query often has several
	// ways to be answered, and keeping the ranked survivors is what
	// lets execution degrade gracefully instead of failing.
	Alternatives []*planner.Plan
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
	// Cost is the optimal weighted workload cost under the cost model.
	Cost float64
	// Timings breaks down the advisor runtime.
	Timings Timings
	// Stats reports problem sizes.
	Stats Stats
}

// withDefaults resolves zero-valued options: the default cost model,
// support-plan bound, and worker count (spread to the BIP solver).
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
	return opt
}

// Advise runs the full pipeline on a workload and returns the
// recommendation.
func Advise(w *workload.Workload, opt Options) (*Recommendation, error) {
	opt = opt.withDefaults()
	start := time.Now()
	rec := &Recommendation{}
	root := opt.Trace.Begin("advise", "advisor")
	defer root.End()
	defer publishRun(opt, rec)

	// Candidate enumeration (Algorithm 1).
	t := time.Now()
	sp := opt.Trace.Begin("enumerate", "advisor")
	enumRes, err := enumerator.EnumerateWorkloadCtx(opt.Ctx, w, opt.Enumerator, opt.Workers, opt.Obs)
	if err != nil {
		sp.End()
		return nil, err
	}
	rec.Timings.Enumeration = time.Since(t)
	rec.Stats.Candidates = enumRes.Pool.Len()
	sp.SetArg("candidates", rec.Stats.Candidates).End()
	opt.Obs.Counter("search.candidates").Add(int64(rec.Stats.Candidates))

	// Plan-space generation and cost estimation.
	t = time.Now()
	sp = opt.Trace.Begin("plan-spaces", "advisor")
	pl := planner.New(enumRes.Pool, opt.CostModel, opt.Planner)
	b, err := newBuilder(w, pl, enumRes, opt)
	if err != nil {
		sp.End()
		return nil, err
	}
	rec.Timings.CostCalculation = time.Since(t)
	sp.End()
	publishPlanner(opt.Obs, pl.Counts())

	p := b.prepare(rec)
	chosen, refs, err := p.solve(rec)
	if err != nil {
		return nil, err
	}

	opt.Obs.Counter("search.plans_pruned_dominated").Add(int64(b.prunedPlans))
	opt.Obs.Counter("search.cuts").Add(int64(b.cuts))

	// Extraction.
	t = time.Now()
	sp = opt.Trace.Begin("extract", "advisor")
	if err := b.extract(chosen, refs, rec); err != nil {
		sp.End()
		return nil, err
	}
	rec.Timings.Other = time.Since(t)
	rec.Timings.Total = time.Since(start)
	sp.End()
	return rec, nil
}

// prepare formulates the phase-1 program (minimize weighted workload
// cost) and its greedy warm start, recording the problem size in rec.
func (b *builder) prepare(rec *Recommendation) *Prepared {
	opt := b.opt
	t := time.Now()
	sp := opt.Trace.Begin("formulate", "advisor")
	prog, refs := b.formulate(nil)
	rec.Timings.BIPConstruction = time.Since(t)
	rec.Stats.PlanVariables = len(refs.planCols)
	rec.Stats.Constraints = prog.NumRows()
	sp.SetArg("plan_variables", rec.Stats.PlanVariables).
		SetArg("constraints", rec.Stats.Constraints).End()
	opt.Obs.Counter("search.plan_variables").Add(int64(rec.Stats.PlanVariables))
	opt.Obs.Counter("search.constraints").Add(int64(rec.Stats.Constraints))

	incumbent := make([]float64, prog.NumCols())
	b.greedyPhase(incumbent, refs)
	return &Prepared{b: b, prog: prog, refs: refs, incumbent: incumbent}
}

// solve runs both solver phases — minimize workload cost, then, unless
// SkipMinimizeSchema, pin that cost and minimize the number of paid
// column families (paper §V) — and returns the assignment to extract
// with the column map it is expressed in. The optimal cost, node count
// and stage timings land in rec. A phase-2 failure is not an error: the
// phase-1 assignment is already optimal in cost. A cancelled or timed-out
// phase 2 is, since the caller asked for no answer.
func (p *Prepared) solve(rec *Recommendation) (*bip.Result, *colRefs, error) {
	opt := p.b.opt
	phase1 := opt.BIP
	phase1.Incumbent = p.incumbent
	t := time.Now()
	sp := opt.Trace.Begin("solve phase 1", "advisor")
	res1, err := p.prog.Solve(phase1)
	rec.Timings.BIPSolving = time.Since(t)
	if err != nil {
		sp.End()
		return nil, nil, fmt.Errorf("search: phase 1 solve: %w", err)
	}
	rec.Stats.Phase1 = endSolve(sp, res1)
	if !res1.HasSolution {
		if res1.Status == bip.Infeasible {
			return nil, nil, fmt.Errorf("search: phase 1 %v: %w", res1.Status, ErrInfeasible)
		}
		return nil, nil, fmt.Errorf("search: phase 1 %v: no feasible schema", res1.Status)
	}
	rec.Stats.Nodes = res1.Nodes
	rec.Cost = res1.Objective
	if opt.SkipMinimizeSchema {
		return res1, p.refs, nil
	}

	t = time.Now()
	sp = opt.Trace.Begin("formulate phase 2", "advisor")
	prog2, refs2 := p.b.formulate(&res1.Objective)
	rec.Timings.BIPConstruction += time.Since(t)
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
	rec.Timings.BIPSolving += time.Since(t)
	if err != nil {
		sp.End()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, nil, fmt.Errorf("search: phase 2 solve: %w", err)
		}
		return res1, p.refs, nil
	}
	rec.Stats.Phase2 = endSolve(sp, res2)
	if !res2.HasSolution {
		return res1, p.refs, nil
	}
	rec.Stats.Nodes += res2.Nodes
	return res2, refs2, nil
}

// publishRun records the run-level metrics that are only known at the
// end: solver node totals and wall-clock stage gauges.
func publishRun(opt Options, rec *Recommendation) {
	if opt.Obs == nil {
		return
	}
	opt.Obs.Counter("search.nodes").Add(int64(rec.Stats.Nodes))
	opt.Obs.Counter("search.advise_runs").Inc()
	publishSolve(opt.Obs, "phase1", rec.Stats.Phase1)
	publishSolve(opt.Obs, "phase2", rec.Stats.Phase2)
	publishTimings(opt.Obs, rec.Timings)
}

// publishPlanner reports how much generation a run's planner did: the
// segments and steps its plan spaces asked for against the distinct ones
// it built, the candidate families it examined and the chains it joined.
func publishPlanner(r *obs.Registry, c planner.Counts) {
	r.Counter("planner.segment_requests").Add(c.SegmentRequests)
	r.Counter("planner.segments").Add(c.Segments)
	r.Counter("planner.step_requests").Add(c.StepRequests)
	r.Counter("planner.steps").Add(c.Steps)
	r.Counter("planner.candidates_examined").Add(c.CandidatesExamined)
	r.Counter("planner.chains_joined").Add(c.ChainsJoined)
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
