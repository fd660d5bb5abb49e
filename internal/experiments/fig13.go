package experiments

import (
	"fmt"
	"strings"
	"time"

	"nose/internal/randwork"
	"nose/internal/search"
)

// Fig13Row is one scale factor's advise, mirroring the stacked bars of
// paper Fig. 13: the advisor's stage timings (the figure's categories
// are CostCalculation, BIPConstruction, BIPSolving, and Enumeration
// plus Other) and its problem sizes and per-phase solve outcomes.
type Fig13Row struct {
	// Factor is the workload scale factor.
	Factor int
	search.Timings
	search.Stats
}

// Fig13Result is the regenerated paper Fig. 13.
type Fig13Result struct {
	// Rows has one entry per scale factor, ascending.
	Rows []Fig13Row
}

// Fig13Config parameterizes the runtime experiment.
type Fig13Config struct {
	// MaxFactor is the largest scale factor measured (the paper used
	// 10).
	MaxFactor int
	// Seed drives workload generation.
	Seed int64
	// Advisor tunes the runs.
	Advisor search.Options
}

// RunFig13 measures advisor runtime on random workloads of growing
// scale.
func RunFig13(cfg Fig13Config) (*Fig13Result, error) {
	cfg.MaxFactor = positive(cfg.MaxFactor, 5)
	sw := &sweep{name: "fig13"}
	res := &Fig13Result{}
	for factor := 1; factor <= cfg.MaxFactor; factor++ {
		err := sw.cell(fmt.Sprintf("factor=%d", factor), func(*cell) error {
			w, err := randwork.Generate(randwork.Config{Factor: factor, Seed: cfg.Seed})
			if err != nil {
				return err
			}
			rec, err := search.Advise(w, cfg.Advisor)
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows, Fig13Row{Factor: factor, Timings: rec.Timings, Stats: rec.Stats})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Format renders the result as the figure's data table, with each
// solver phase's outcome: a time is a time to proof only where both
// phases ended optimal, and otherwise comes with its relative gap.
func (r *Fig13Result) Format() string {
	phase := func(s search.Solve) string {
		if !s.Ran {
			return fmt.Sprintf(" %-10s %7s %7s", "skipped", "-", "-")
		}
		return fmt.Sprintf(" %-10s %6.1f%% %7d", s.Status, 100*s.Gap, s.Nodes)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %12s %12s %12s %12s %12s %10s %11s %-10s %7s %7s %-10s %7s %7s\n",
		"Factor", "CostCalc", "BIPBuild", "BIPSolve", "Other", "Total", "Candidates", "Constraints",
		"P1", "P1gap", "P1nodes", "P2", "P2gap", "P2nodes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7d %12s %12s %12s %12s %12s %10d %11d%s%s\n",
			row.Factor,
			row.CostCalculation.Round(time.Millisecond),
			row.BIPConstruction.Round(time.Millisecond),
			row.BIPSolving.Round(time.Millisecond),
			(row.Enumeration + row.Other).Round(time.Millisecond),
			row.Total.Round(time.Millisecond),
			row.Candidates, row.Constraints,
			phase(row.Phase1), phase(row.Phase2))
	}
	return b.String()
}
