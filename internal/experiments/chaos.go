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

// ChaosCell is one (fault rate, system) measurement.
type ChaosCell struct {
	// Rate is the overall injected fault rate.
	Rate float64
	// System names the measured schema (see SystemNames).
	System string
	// AvgMillis is the average simulated response time of the
	// transactions that completed, retries included.
	AvgMillis float64
	// Completed and Unavailable partition the attempted transactions:
	// Unavailable counts those abandoned because some statement's plan
	// met a fault that outlived its retries.
	Completed   int64
	Unavailable int64
	// Counters is the system's registry counters at the end of the
	// rate: retries (exec.*), statement outcomes (harness.*), injected
	// faults (faults.*).
	Counters map[string]int64
}

// ChaosResult is the full sweep.
type ChaosResult struct {
	// Cells has one entry per (fault rate, system): rates in Rates
	// order, and within a rate the systems in SystemNames order.
	Cells []ChaosCell
}

// RunChaos sweeps fault rates over the three schemas of Fig. 11 and
// measures how gracefully each degrades: transactions that complete
// despite faults (slower, via retries) versus transactions lost to
// ErrUnavailable when a statement's plan meets a fault that outlives its
// retries. Everything is deterministic: the same config and seed
// reproduce the same result, and rate 0 executes the exact unfaulted
// harness path.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg.Base.Executions = positive(cfg.Base.Executions, 20)
	rates := nonEmpty(cfg.Rates, DefaultChaosRates)
	f, err := newAdvisedFixture(cfg.Base)
	if err != nil {
		return nil, err
	}

	sw := newSweep("chaos", f.ds, f.cfg.Advisor)
	res := &ChaosResult{}
	for _, rate := range rates {
		// Fresh systems per rate: each rate mutates its own stores, so
		// rates never contaminate each other and any single rate can be
		// reproduced in isolation.
		err := sw.cell(fmt.Sprintf("rate=%g", rate), func(c *cell) error {
			for _, name := range SystemNames {
				sc := harness.Config{Name: name, Rec: f.recs[name]}
				if rate > 0 {
					sc.FamilyWeather = &harness.Weather{Seed: cfg.Seed, Profile: faults.Rate(rate)}
				}
				sys, err := c.system(sc)
				if err != nil {
					return err
				}
				millis, lost, err := f.measureMix(sys)
				if err != nil {
					return err
				}
				cell := ChaosCell{Rate: rate, System: name, Completed: int64(len(millis)), Unavailable: lost}
				if cell.Completed > 0 {
					cell.AvgMillis = sum(millis) / float64(cell.Completed)
				}
				cell.Counters = sys.Obs().Snapshot().Counters
				res.Cells = append(res.Cells, cell)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Format renders the sweep as a data table: per rate and system, the
// average response time of completed transactions, the count lost to
// unavailability, and the retries spent surviving.
func (r *ChaosResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-12s %12s %10s %12s %10s\n",
		"Rate", "System", "Avg(ms)", "Completed", "Unavailable", "Retries")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-8.3f %-12s %12.3f %10d %12d %10d\n",
			c.Rate, c.System, c.AvgMillis, c.Completed, c.Unavailable,
			c.Counters["exec.retries"])
	}
	return b.String()
}
