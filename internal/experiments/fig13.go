package experiments

import (
	"fmt"
	"strings"
	"time"

	"nose/internal/randwork"
	"nose/internal/search"
)

// Fig13Row is one scale factor's advisor runtime breakdown, mirroring
// the stacked bars of paper Fig. 13.
type Fig13Row struct {
	// Factor is the workload scale factor.
	Factor int
	// CostCalculation is time spent generating and costing plan
	// spaces.
	CostCalculation time.Duration
	// BIPConstruction is time spent formulating the integer program.
	BIPConstruction time.Duration
	// BIPSolving is time spent in the solver.
	BIPSolving time.Duration
	// Other covers enumeration, extraction and bookkeeping.
	Other time.Duration
	// Total is the end-to-end advisor runtime.
	Total time.Duration
	// Candidates and Constraints report problem sizes.
	Candidates, Constraints int
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
			t := rec.Timings
			res.Rows = append(res.Rows, Fig13Row{
				Factor:          factor,
				CostCalculation: t.CostCalculation,
				BIPConstruction: t.BIPConstruction,
				BIPSolving:      t.BIPSolving,
				Other:           t.Enumeration + t.Other,
				Total:           t.Total,
				Candidates:      rec.Stats.Candidates,
				Constraints:     rec.Stats.Constraints,
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Format renders the result as the figure's data table.
func (r *Fig13Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %12s %12s %12s %12s %12s %10s %11s\n",
		"Factor", "CostCalc", "BIPBuild", "BIPSolve", "Other", "Total", "Candidates", "Constraints")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7d %12s %12s %12s %12s %12s %10d %11d\n",
			row.Factor,
			row.CostCalculation.Round(time.Millisecond),
			row.BIPConstruction.Round(time.Millisecond),
			row.BIPSolving.Round(time.Millisecond),
			row.Other.Round(time.Millisecond),
			row.Total.Round(time.Millisecond),
			row.Candidates, row.Constraints)
	}
	return b.String()
}
