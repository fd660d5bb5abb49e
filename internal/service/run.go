package service

import (
	"context"

	"nose/internal/bip"
	"nose/internal/experiments"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/service/api"
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

	// MaxSimulateUsers and MaxSimulateExecutions bound what a request
	// may ask for, so an outside value cannot exhaust the daemon: the
	// bound on users is nosebench's default scale (about 230 MB at
	// peak), and the one on executions is fifty times the default.
	MaxSimulateUsers      = 20_000
	MaxSimulateExecutions = 1_000
)

// run executes one job and returns its canonical result document. The
// job's context cancels the solve at the next advisor checkpoint;
// run then returns the context error and the caller marks the job
// cancelled. The advisor kinds go through api.Request.Run, the same
// call `nose -json` makes.
func (m *Manager) run(ctx context.Context, j *Job) ([]byte, error) {
	if j.req.Kind == "simulate" {
		return m.runSimulate(ctx, j)
	}
	return j.req.Run(ctx, j.req.Kind, j.reg, j.tracer)
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
		maxPlans = experiments.DefaultMaxPlans
	}
	res, err := experiments.RunFig11(experiments.Fig11Config{
		RUBiS:      rubis.Config{Users: users, Seed: seed},
		Executions: executions,
		Mix:        j.req.Mix,
		Advisor: search.Options{
			Workers:          j.req.Workers,
			SpaceBudgetBytes: j.req.SpaceBytes,
			Planner:          planner.Config{MaxPlansPerQuery: maxPlans},
			MaxSupportPlans:  experiments.DefaultMaxSupportPlans,
			BIP:              bip.Options{MaxNodes: experiments.DefaultMaxNodes},
			Ctx:              ctx,
			Obs:              j.reg,
			Trace:            j.tracer,
		},
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
