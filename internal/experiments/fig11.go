package experiments

import (
	"fmt"
	"strings"

	"nose/internal/harness"
	"nose/internal/obs"
	"nose/internal/rubis"
	"nose/internal/search"
)

// SystemNames orders the compared schemas as in paper Fig. 11.
var SystemNames = []string{"NoSE", "Normalized", "Expert"}

// Fig11Row is one transaction's average response time per system.
type Fig11Row struct {
	// Transaction is the RUBiS transaction type.
	Transaction string
	// Millis maps system name to average simulated response time.
	Millis map[string]float64
}

// Fig11Result is the regenerated Fig. 11 plus the paper's headline
// ratios from §VII-A.
type Fig11Result struct {
	// Rows has one entry per transaction type, in Fig. 11 order.
	Rows []Fig11Row
	// WeightedAvg is the mix-weighted average response time per
	// system.
	WeightedAvg map[string]float64
	// MaxSpeedupVsExpert is NoSE's best per-transaction ratio over the
	// expert schema (the paper reports up to 125x).
	MaxSpeedupVsExpert float64
	// WeightedSpeedupVsExpert is the weighted-average ratio (the paper
	// reports 1.8x).
	WeightedSpeedupVsExpert float64
}

// Fig11Config parameterizes the experiment.
type Fig11Config struct {
	// RUBiS scales the dataset.
	RUBiS rubis.Config
	// Executions is the number of measured executions per transaction
	// type (the paper used 1000).
	Executions int
	// Mix selects the workload mix; empty means bidding.
	Mix string
	// Advisor tunes the NoSE run.
	Advisor search.Options
	// Obs, when set, collects the run's metrics: the advisor's stage
	// counters directly, and each measured system's registry merged in
	// after its measurement. Deterministic counters in the merged
	// registry are bit-identical across reruns and worker counts.
	Obs *obs.Registry
	// Trace, when set, collects Chrome-trace events: advisor stages on
	// the wall-clock process and executed statements on per-system
	// simulated-clock lanes.
	Trace *obs.Tracer
}

// RunFig11 measures per-transaction average response times on the
// three schemas.
func RunFig11(cfg Fig11Config) (*Fig11Result, error) {
	f, err := newFixture(cfg)
	if err != nil {
		return nil, err
	}
	return fig11Mix(f, f.sweep("fig11"), cfg.Mix)
}

// fig11Mix is one cell of Fig. 11 and Fig. 12: advise the three schemas
// for a mix, install each in a fresh store, measure every transaction
// of the mix on each.
func fig11Mix(f *fixture, sw *sweep, mix string) (*Fig11Result, error) {
	f.cfg.Executions = positive(f.cfg.Executions, 50)
	if err := f.advise(mix); err != nil {
		return nil, err
	}
	res := &Fig11Result{WeightedAvg: map[string]float64{}}
	err := sw.cell(f.mix, func(c *cell) error {
		var systems []*harness.System
		for _, name := range SystemNames {
			sys, err := c.system(harness.Config{Name: name, Rec: f.recs[name]})
			if err != nil {
				return err
			}
			systems = append(systems, sys)
		}
		totalsBySystem := map[string]float64{}
		weightSum := 0.0
		for _, txn := range f.active {
			row := Fig11Row{Transaction: txn.Name, Millis: map[string]float64{}}
			for _, sys := range systems {
				millis, _, err := measure(sys, txn, f.cfg.Executions, f.params(paramSeed))
				if err != nil {
					return err
				}
				row.Millis[sys.Name] = sum(millis) / float64(f.cfg.Executions)
			}
			res.Rows = append(res.Rows, row)
			weight := rubis.TransactionWeight(txn, f.mix)
			weightSum += weight
			for name, ms := range row.Millis {
				totalsBySystem[name] += weight * ms
			}
		}
		for name, total := range totalsBySystem {
			res.WeightedAvg[name] = total / weightSum
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, row := range res.Rows {
		if row.Millis["NoSE"] > 0 {
			if ratio := row.Millis["Expert"] / row.Millis["NoSE"]; ratio > res.MaxSpeedupVsExpert {
				res.MaxSpeedupVsExpert = ratio
			}
		}
	}
	if res.WeightedAvg["NoSE"] > 0 {
		res.WeightedSpeedupVsExpert = res.WeightedAvg["Expert"] / res.WeightedAvg["NoSE"]
	}
	return res, nil
}

// Format renders the result as the figure's data table.
func (r *Fig11Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %12s %12s\n", "Transaction", "NoSE(ms)", "Normalized", "Expert")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %12.3f %12.3f %12.3f\n",
			row.Transaction, row.Millis["NoSE"], row.Millis["Normalized"], row.Millis["Expert"])
	}
	fmt.Fprintf(&b, "%-24s %12.3f %12.3f %12.3f\n", "WeightedAverage",
		r.WeightedAvg["NoSE"], r.WeightedAvg["Normalized"], r.WeightedAvg["Expert"])
	fmt.Fprintf(&b, "max speedup vs expert: %.1fx; weighted speedup vs expert: %.2fx\n",
		r.MaxSpeedupVsExpert, r.WeightedSpeedupVsExpert)
	return b.String()
}
