package experiments

import (
	"errors"
	"fmt"
	"strings"

	"nose/internal/rubis"
	"nose/internal/search"
)

// AblationRow is one feature-removal variant's outcome on the RUBiS
// bidding workload.
type AblationRow struct {
	// Variant names the configuration.
	Variant string
	// CostRatio is the estimated workload cost relative to the full
	// advisor.
	CostRatio float64
	// Candidates is the enumerated pool size.
	Candidates int
	// Families is the recommended schema size.
	Families int
}

// AblationResult quantifies the contribution of the advisor's design
// choices (DESIGN.md §5): the Combine supplement, reversed-orientation
// enumeration and planning, and predicate relaxation.
type AblationResult struct {
	// Rows are the variants, the full advisor first.
	Rows []AblationRow
}

// RunAblation advises the RUBiS bidding workload with individual
// features disabled and reports cost degradation.
func RunAblation(cfg Fig11Config) (*AblationResult, error) {
	g := rubis.Graph(cfg.RUBiS)
	w, _, err := rubis.Workload(g)
	if err != nil {
		return nil, err
	}

	variants := []struct {
		name   string
		mutate func(*search.Options)
	}{
		{"full", func(*search.Options) {}},
		{"no-combine", func(o *search.Options) { o.Enumerator.SkipCombine = true }},
		{"no-reverse", func(o *search.Options) {
			o.Enumerator.SkipReverse = true
			o.Planner.SkipReverse = true
		}},
		{"no-relaxation", func(o *search.Options) { o.Planner.SkipRelaxation = true }},
	}

	res := &AblationResult{}
	base := 0.0
	for _, v := range variants {
		opt := advisorOptions(cfg.Advisor, cfg.Obs, cfg.Trace)
		v.mutate(&opt)
		rec, err := search.Advise(w, opt)
		if errors.Is(err, search.ErrInfeasible) {
			// A variant proven unable to cover the workload is itself a
			// finding: record why under its name, with a zero ratio.
			res.Rows = append(res.Rows, AblationRow{Variant: v.name + " (infeasible: " + err.Error() + ")"})
			continue
		}
		if err != nil {
			return nil, err
		}
		if v.name == "full" {
			base = rec.Cost
		}
		row := AblationRow{
			Variant:    v.name,
			Candidates: rec.Stats.Candidates,
			Families:   rec.Schema.Len(),
		}
		if base > 0 {
			row.CostRatio = rec.Cost / base
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the ablation as a data table.
func (r *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %12s %12s %10s\n", "Variant", "Cost ratio", "Candidates", "Families")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-40s %12.3f %12d %10d\n", row.Variant, row.CostRatio, row.Candidates, row.Families)
	}
	return b.String()
}
