package experiments

import (
	"fmt"
	"strings"

	"nose/internal/faults"
	"nose/internal/harness"
)

// ChaosConfig parameterizes the fault-rate sweep. The sweep reuses
// Fig. 11's dataset, workload mix, and three compared schemas, but runs
// every transaction through a fault-injected store and reports
// robustness instead of raw response time.
type ChaosConfig struct {
	// Base configures the dataset, mix, executions and advisor exactly
	// as in Fig. 11.
	Base Fig11Config
	// Rates is the sweep of overall fault rates (each split into
	// transient/timeout/unavailable bands by faults.Rate); empty means
	// DefaultChaosRates.
	Rates []float64
	// Seed seeds the fault injectors; the same seed reproduces the
	// whole sweep bit for bit.
	Seed int64
}

// DefaultChaosRates is the default fault-rate sweep, from a healthy
// store to one where a twentieth of operations fault.
var DefaultChaosRates = []float64{0, 0.005, 0.02, 0.05}

// ChaosCell is one (system, fault rate) measurement.
type ChaosCell struct {
	// AvgMillis is the average simulated response time of the
	// transactions that completed, retries and failovers included.
	AvgMillis float64
	// Completed and Unavailable partition the attempted transactions:
	// Unavailable counts those abandoned because some statement had no
	// surviving plan.
	Completed   int64
	Unavailable int64
	// Report is the system's cumulative robustness ledger for this
	// rate.
	Report harness.RobustnessReport
}

// ChaosRow is one fault rate's measurements across the systems.
type ChaosRow struct {
	// Rate is the overall injected fault rate.
	Rate float64
	// Cells maps system name to its measurement.
	Cells map[string]ChaosCell
}

// ChaosResult is the full sweep.
type ChaosResult struct {
	// Rows has one entry per fault rate, in Rates order.
	Rows []ChaosRow
}

// RunChaos sweeps fault rates over the three schemas of Fig. 11 and
// measures how gracefully each degrades: transactions that complete
// despite faults (slower, via retries and plan failover) versus
// transactions lost to ErrUnavailable. Index-redundant schemas keep
// alternative plans alive and should lose fewer transactions than the
// minimal ones. Everything is deterministic: the same config and seed
// reproduce the same result, and rate 0 executes the exact unfaulted
// harness path.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg.Base.Executions = positive(cfg.Base.Executions, 20)
	rates := nonEmpty(cfg.Rates, DefaultChaosRates)
	f, err := newAdvisedFixture(cfg.Base)
	if err != nil {
		return nil, err
	}

	sw := f.sweep("chaos")
	res := &ChaosResult{}
	for _, rate := range rates {
		row := ChaosRow{Rate: rate, Cells: map[string]ChaosCell{}}
		// Fresh systems per rate: each rate mutates its own stores, so
		// rates never contaminate each other and any single rate can be
		// reproduced in isolation.
		err := sw.cell(fmt.Sprintf("rate=%g", rate), func(c *cell) error {
			for _, name := range SystemNames {
				sc := harness.Config{Name: name, Rec: f.recs[name]}
				if rate > 0 {
					sc.FamilyWeather = &harness.FamilyWeather{Seed: cfg.Seed, Profile: faults.Rate(rate)}
				}
				sys, err := c.system(sc)
				if err != nil {
					return err
				}
				cell := ChaosCell{}
				totalMillis := 0.0
				for _, txn := range f.active {
					millis, lost, err := measure(sys, txn, cfg.Base.Executions, f.params(paramSeed), harness.ErrUnavailable)
					if err != nil {
						return err
					}
					cell.Completed += int64(len(millis))
					cell.Unavailable += lost
					for _, ms := range millis {
						totalMillis += ms
					}
				}
				if cell.Completed > 0 {
					cell.AvgMillis = totalMillis / float64(cell.Completed)
				}
				cell.Report = sys.Robustness()
				row.Cells[name] = cell
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the sweep as a data table: per rate and system, the
// average response time of completed transactions, the count lost to
// unavailability, and the retry/failover work spent surviving.
func (r *ChaosResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-12s %12s %10s %12s %10s %10s\n",
		"Rate", "System", "Avg(ms)", "Completed", "Unavailable", "Retries", "Failovers")
	for _, row := range r.Rows {
		for _, name := range SystemNames {
			c := row.Cells[name]
			fmt.Fprintf(&b, "%-8.3f %-12s %12.3f %10d %12d %10d %10d\n",
				row.Rate, name, c.AvgMillis, c.Completed, c.Unavailable,
				c.Report.Retries, c.Report.Failovers)
		}
	}
	return b.String()
}
