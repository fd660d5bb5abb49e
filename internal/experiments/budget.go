package experiments

import (
	"errors"
	"fmt"
	"strings"

	"nose/internal/hotel"
	"nose/internal/search"
	"nose/internal/workload"
)

// BudgetRow is one point of the storage-budget sweep: the estimated
// workload cost and schema size the advisor achieves under a budget.
type BudgetRow struct {
	// Fraction is the budget as a fraction of the unconstrained
	// schema's estimated size.
	Fraction float64
	// BudgetMB is the absolute budget.
	BudgetMB float64
	// CostRatio is the optimal workload cost relative to the
	// unconstrained optimum.
	CostRatio float64
	// Families is the number of recommended column families.
	Families int
	// UsedMB is the estimated size of the recommended schema.
	UsedMB float64
	// Infeasible records that the solver proved no covering schema fits
	// the budget — possible because denormalized views can be smaller
	// than the normalized alternatives that would replace them. Any
	// other advise error fails the sweep.
	Infeasible bool
}

// BudgetResult is the storage-budget ablation: the paper (§III-D, §IX)
// highlights the space constraint as the knob applications use to
// trade normalization against query performance; this sweep charts
// that tradeoff.
type BudgetResult struct {
	// UnconstrainedMB is the schema size with no budget.
	UnconstrainedMB float64
	// Rows are the sweep points, decreasing budget.
	Rows []BudgetRow
}

// RunBudgetSweep advises the hotel booking workload (paper §II) under
// shrinking storage budgets. The hotel model makes the tradeoff vivid:
// its optimal materialized views span the whole reservation path and
// dwarf the narrow key-only families that replace them under pressure.
// (On RUBiS the unconstrained optimum is already the minimal covering
// schema, so its sweep is flat until infeasibility.)
func RunBudgetSweep(cfg Fig11Config, fractions []float64) (*BudgetResult, error) {
	fractions = nonEmpty(fractions, []float64{1, 0.75, 0.5, 0.35, 0.25})
	g := hotel.Graph()
	w := workload.New(g)
	w.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 0.6)
	w.Add(workload.MustParseQuery(g, hotel.PrefixQuery), 0.3)
	w.Add(workload.MustParse(g, hotel.UpdateStatements[0]), 0.1)
	advisor := advisorOptions(cfg.Advisor, cfg.Obs, cfg.Trace)
	free, err := search.Advise(w, advisor)
	if err != nil {
		return nil, err
	}
	res := &BudgetResult{UnconstrainedMB: free.Schema.TotalSizeBytes() / 1e6}
	for _, f := range fractions {
		opt := advisor
		opt.SpaceBudgetBytes = free.Schema.TotalSizeBytes() * f
		rec, err := search.Advise(w, opt)
		if errors.Is(err, search.ErrInfeasible) {
			res.Rows = append(res.Rows, BudgetRow{
				Fraction:   f,
				BudgetMB:   opt.SpaceBudgetBytes / 1e6,
				Infeasible: true,
			})
			continue
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, BudgetRow{
			Fraction:  f,
			BudgetMB:  opt.SpaceBudgetBytes / 1e6,
			CostRatio: rec.Cost / free.Cost,
			Families:  rec.Schema.Len(),
			UsedMB:    rec.Schema.TotalSizeBytes() / 1e6,
		})
	}
	return res, nil
}

// Format renders the sweep as a data table.
func (r *BudgetResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "unconstrained schema: %.1f MB\n", r.UnconstrainedMB)
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %10s\n", "Budget", "Budget(MB)", "Cost ratio", "Families", "Used(MB)")
	for _, row := range r.Rows {
		if row.Infeasible {
			fmt.Fprintf(&b, "%9.0f%% %12.1f %34s\n", row.Fraction*100, row.BudgetMB, "no covering schema fits")
			continue
		}
		fmt.Fprintf(&b, "%9.0f%% %12.1f %12.3f %10d %10.1f\n",
			row.Fraction*100, row.BudgetMB, row.CostRatio, row.Families, row.UsedMB)
	}
	return b.String()
}
