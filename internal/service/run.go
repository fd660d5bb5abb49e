package service

import (
	"context"
	"fmt"

	"nose/internal/bip"
	"nose/internal/drift"
	"nose/internal/experiments"
	"nose/internal/migrate"
	"nose/internal/nosedsl"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/service/api"
	"nose/internal/workload"
)

// Simulate job defaults, scaled down from the paper's figures so a
// smoke request finishes in seconds.
const (
	// DefaultSimulateUsers scales the RUBiS dataset.
	DefaultSimulateUsers = 2000
	// DefaultSimulateExecutions is the measured executions per
	// transaction type.
	DefaultSimulateExecutions = 20
	// DefaultSimulateSeed seeds dataset generation.
	DefaultSimulateSeed = 1
	// simulateMaxNodes bounds the advisor's branch and bound inside a
	// simulate job, mirroring cmd/nosebench's default.
	simulateMaxNodes = 500
	// simulateMaxPlans is the simulate job's default plan-space bound,
	// mirroring cmd/nosebench.
	simulateMaxPlans = 24
)

// run executes one job and returns its canonical result document. The
// job's context cancels the solve at the next advisor checkpoint;
// run then returns the context error and the caller marks the job
// cancelled.
func (m *Manager) run(ctx context.Context, j *Job) ([]byte, error) {
	switch j.req.Kind {
	case "advise":
		return m.runAdvise(ctx, j)
	case "advise-series":
		return m.runSeries(ctx, j)
	case "drift-report":
		return m.runDriftReport(ctx, j)
	case "simulate":
		return m.runSimulate(ctx, j)
	}
	return nil, fmt.Errorf("unknown job kind %q", j.req.Kind)
}

// advisorOptions builds the search options for a request, mirroring
// cmd/nose's defaults exactly — any divergence here would break the
// byte-identity between daemon results and CLI output.
func (m *Manager) advisorOptions(ctx context.Context, j *Job) search.Options {
	maxPlans := j.req.MaxPlans
	if maxPlans <= 0 {
		maxPlans = planner.DefaultMaxPlansPerQuery
	}
	return search.Options{
		Workers:          j.req.Workers,
		SpaceBudgetBytes: j.req.SpaceBytes,
		Planner:          planner.Config{MaxPlansPerQuery: maxPlans},
		Ctx:              ctx,
		Obs:              j.reg,
		Trace:            j.tracer,
	}
}

// parseWorkload parses the request DSL and applies the mix override.
func parseWorkload(req Request) (*workload.Workload, error) {
	_, w, err := nosedsl.Parse(req.DSL)
	if err != nil {
		return nil, err
	}
	if req.Mix != "" {
		w.ActiveMix = req.Mix
	}
	return w, nil
}

func (m *Manager) runAdvise(ctx context.Context, j *Job) ([]byte, error) {
	w, err := parseWorkload(j.req)
	if err != nil {
		return nil, err
	}
	rec, err := search.Advise(w, m.advisorOptions(ctx, j))
	if err != nil {
		return nil, err
	}
	return api.Encode(api.Advise(w, rec))
}

func (m *Manager) runSeries(ctx context.Context, j *Job) ([]byte, error) {
	w, err := parseWorkload(j.req)
	if err != nil {
		return nil, err
	}
	sr, err := search.AdviseSeries(w, m.advisorOptions(ctx, j))
	if err != nil {
		return nil, err
	}
	return api.Encode(api.Series(w, sr))
}

// runDriftReport mirrors cmd/nose's -drift-report: advise the active
// mix, then for each other declared mix compute the total-variation
// divergence, the default detector's verdict, and the migration diff
// between the two schemas.
func (m *Manager) runDriftReport(ctx context.Context, j *Job) ([]byte, error) {
	w, err := parseWorkload(j.req)
	if err != nil {
		return nil, err
	}
	mixes := w.Mixes()
	if len(mixes) < 2 {
		return nil, fmt.Errorf("drift-report needs at least two declared mixes; workload has %d", len(mixes))
	}
	opts := m.advisorOptions(ctx, j)
	rec, err := search.Advise(w, opts)
	if err != nil {
		return nil, err
	}
	report := &api.DriftReport{
		ActiveMix: w.ActiveMix,
		Threshold: drift.Config{}.Normalized().Threshold,
		Schema:    *api.Advise(w, rec),
	}
	for _, mix := range mixes {
		if mix == w.ActiveMix {
			continue
		}
		div := drift.TotalVariation(mixWeights(w, mix), mixWeights(w, w.ActiveMix))
		other := *w
		other.ActiveMix = mix
		otherRec, err := search.Advise(&other, opts)
		if err != nil {
			return nil, fmt.Errorf("advise mix %q: %w", mix, err)
		}
		build, drop := migrate.Diff(rec.Schema, otherRec.Schema)
		report.Mixes = append(report.Mixes, api.MixDrift{
			Mix:        mix,
			Divergence: div,
			Drift:      div >= report.Threshold,
			Builds:     len(build),
			Drops:      len(drop),
		})
	}
	return api.Encode(report)
}

// mixWeights returns a mix's normalized statement-label mix.
func mixWeights(w *workload.Workload, mix string) map[string]float64 {
	out := map[string]float64{}
	for _, ws := range w.Statements {
		out[workload.Label(ws.Statement)] += ws.WeightIn(mix)
	}
	return drift.Normalize(out)
}

// simulateResult is the simulate job's wire form: the regenerated
// paper Fig. 11 table for the requested RUBiS scale and seed.
type simulateResult struct {
	// Rows has one entry per transaction type, in Fig. 11 order.
	Rows []simulateRow `json:"rows"`
	// WeightedAvgMillis is the mix-weighted average response time per
	// system.
	WeightedAvgMillis map[string]float64 `json:"weighted_avg_millis"`
	// MaxSpeedupVsExpert and WeightedSpeedupVsExpert are the headline
	// ratios of paper §VII-A.
	MaxSpeedupVsExpert      float64 `json:"max_speedup_vs_expert"`
	WeightedSpeedupVsExpert float64 `json:"weighted_speedup_vs_expert"`
}

// simulateRow is one transaction's average simulated response time per
// system (NoSE, Normalized, Expert).
type simulateRow struct {
	Transaction string             `json:"transaction"`
	Millis      map[string]float64 `json:"millis"`
}

// runSimulate executes the paper's Fig. 11 evaluation — the three
// schemas measured on the simulated record store — at the requested
// scale and seed. The simulate job does not take a DSL: like
// cmd/nosebench, it runs the built-in RUBiS workload.
func (m *Manager) runSimulate(ctx context.Context, j *Job) ([]byte, error) {
	users := j.req.Users
	if users <= 0 {
		users = DefaultSimulateUsers
	}
	executions := j.req.Executions
	if executions <= 0 {
		executions = DefaultSimulateExecutions
	}
	seed := j.req.Seed
	if seed == 0 {
		seed = DefaultSimulateSeed
	}
	maxPlans := j.req.MaxPlans
	if maxPlans <= 0 {
		maxPlans = simulateMaxPlans
	}
	res, err := experiments.RunFig11(experiments.Fig11Config{
		RUBiS:      rubis.Config{Users: users, Seed: seed},
		Executions: executions,
		Mix:        j.req.Mix,
		Advisor: search.Options{
			Workers:          j.req.Workers,
			SpaceBudgetBytes: j.req.SpaceBytes,
			Planner:          planner.Config{MaxPlansPerQuery: maxPlans},
			MaxSupportPlans:  6,
			BIP:              bip.Options{MaxNodes: simulateMaxNodes},
			Ctx:              ctx,
		},
		Obs:   j.reg,
		Trace: j.tracer,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	out := &simulateResult{
		WeightedAvgMillis:       res.WeightedAvg,
		MaxSpeedupVsExpert:      res.MaxSpeedupVsExpert,
		WeightedSpeedupVsExpert: res.WeightedSpeedupVsExpert,
	}
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, simulateRow{Transaction: row.Transaction, Millis: row.Millis})
	}
	return api.Encode(out)
}
