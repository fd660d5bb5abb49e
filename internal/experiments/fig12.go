package experiments

import (
	"fmt"
	"strings"

	"nose/internal/rubis"
)

// Fig12Row is one workload mix's weighted average response time per
// system.
type Fig12Row struct {
	// Mix is the workload mix name.
	Mix string
	// Millis maps system name to weighted average simulated response
	// time.
	Millis map[string]float64
}

// Fig12Result is the regenerated paper Fig. 12.
type Fig12Result struct {
	// Rows has one entry per mix in paper order: browsing, bidding,
	// 10x, 100x.
	Rows []Fig12Row
}

// RunFig12 measures the weighted average response time of the three
// schemas under the four workload mixes. NoSE re-runs the advisor per
// mix ("each of these workload mixes leads to a different NoSE
// schema"); the baselines are fixed designs.
func RunFig12(cfg Fig11Config) (*Fig12Result, error) {
	f, err := newFixture(cfg)
	if err != nil {
		return nil, err
	}
	sw := f.sweep("fig12")
	res := &Fig12Result{}
	for _, mix := range rubis.Mixes {
		f11, err := fig11Mix(f, sw, mix)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig12Row{Mix: mix, Millis: f11.WeightedAvg})
	}
	return res, nil
}

// Format renders the result as the figure's data table.
func (r *Fig12Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "Mix", "NoSE(ms)", "Normalized", "Expert")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %12.3f %12.3f %12.3f\n",
			row.Mix, row.Millis["NoSE"], row.Millis["Normalized"], row.Millis["Expert"])
	}
	return b.String()
}
