package experiments

import (
	"fmt"
	"math"
	"strings"

	"nose/internal/backend"
	"nose/internal/harness"
	"nose/internal/migrate"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/workload"
)

// DriftConfig parameterizes the workload-drift sweep: RUBiS traffic
// that starts read-only (browsing) and drifts phase by phase toward the
// write-heavy write100 mix, compared under a statically-advised schema
// versus a re-advised schema series with migration charges.
type DriftConfig struct {
	// Base configures the dataset, advisor, per-phase execution budget
	// (Executions transactions per phase), and observability exactly as
	// in Fig. 11. Base.Mix is ignored — the drift itself decides the
	// mixes.
	Base Fig11Config
	// Rates is the sweep of drift rates in [0,1]: 0 means every phase
	// keeps the browsing mix, 1 means the final phase is fully
	// write100. Empty means DefaultDriftRates.
	Rates []float64
	// Phases is the number of workload phases; minimum (and default) is
	// set by DefaultDriftPhases.
	Phases int
	// Seed drives the transaction parameter sequences; both systems see
	// identical sequences, so the comparison is paired.
	Seed int64
}

// DefaultDriftRates sweeps from no drift to full browsing→write100
// drift.
var DefaultDriftRates = []float64{0, 0.25, 0.5, 1}

// DefaultDriftPhases is the default timeline length.
const DefaultDriftPhases = 4

// DriftCell is one system's measured totals across the whole timeline
// of one drift rate.
type DriftCell struct {
	// WorkloadMillis is the summed simulated response time of every
	// executed transaction.
	WorkloadMillis float64
	// MigrationMillis is the summed simulated time of schema changes,
	// including the initial installation (both systems build their
	// first schema through the same accounted path).
	MigrationMillis float64
	// Migrations counts schema changes that built at least one family,
	// initial installation included.
	Migrations int
	// FamiliesBuilt totals the column families built.
	FamiliesBuilt int
}

// TotalMillis is the cell's bottom line: workload plus migration time.
func (c DriftCell) TotalMillis() float64 {
	return c.WorkloadMillis + c.MigrationMillis
}

// DriftRow compares the two strategies at one drift rate.
type DriftRow struct {
	// Rate is the drift rate.
	Rate float64
	// Static is the advise-once baseline: one schema, advised on the
	// duration-weighted average of the phases, installed before phase 0
	// and never changed.
	Static DriftCell
	// Readvised is the AdviseSeries schedule: per-phase schemas with
	// mid-run migrations.
	Readvised DriftCell
}

// DriftResult is the full sweep.
type DriftResult struct {
	// Rows has one entry per drift rate, in Rates order.
	Rows []DriftRow
	// Phases and Executions echo the run shape (Executions is the
	// per-phase transaction budget).
	Phases     int
	Executions int
}

// driftWeights returns each transaction's normalized weight per phase:
// phase t blends browsing and write100 with α = rate·t/(phases−1), and
// each phase's weights are normalized to fractions so phases are
// comparable and execution counts follow directly.
func driftWeights(txns []*rubis.Transaction, rate float64, phases int) []map[string]float64 {
	out := make([]map[string]float64, phases)
	for t := 0; t < phases; t++ {
		alpha := rate * float64(t) / float64(phases-1)
		w := map[string]float64{}
		total := 0.0
		for _, txn := range txns {
			v := (1-alpha)*rubis.TransactionWeight(txn, rubis.MixBrowsing) +
				alpha*rubis.TransactionWeight(txn, rubis.MixWrite100)
			w[txn.Name] = v
			total += v
		}
		for name := range w {
			w[name] /= total
		}
		out[t] = w
	}
	return out
}

// driftPhases attaches the per-phase weights to the workload as phase
// overrides keyed by statement label.
func driftPhases(w *workload.Workload, txns []*rubis.Transaction, weights []map[string]float64) []*workload.Phase {
	var phases []*workload.Phase
	for t, pw := range weights {
		over := map[string]float64{}
		for _, txn := range txns {
			for _, st := range txn.Statements {
				over[workload.Label(st)] = pw[txn.Name]
			}
		}
		phases = append(phases, &workload.Phase{
			Name:      fmt.Sprintf("t%d", t),
			Overrides: over,
		})
	}
	return phases
}

// averageWorkload flattens the phases to their mean weights — the
// workload the advise-once baseline sees.
func averageWorkload(w *workload.Workload, txns []*rubis.Transaction, weights []map[string]float64) *workload.Workload {
	avgByTxn := map[string]float64{}
	for _, pw := range weights {
		for name, v := range pw {
			avgByTxn[name] += v / float64(len(weights))
		}
	}
	byLabel := map[string]float64{}
	for _, txn := range txns {
		for _, st := range txn.Statements {
			byLabel[workload.Label(st)] = avgByTxn[txn.Name]
		}
	}
	avg := workload.New(w.Graph)
	for _, ws := range w.Statements {
		avg.Statements = append(avg.Statements, &workload.WeightedStatement{
			Statement: ws.Statement,
			Weight:    byLabel[workload.Label(ws.Statement)],
		})
	}
	return avg
}

// withDefaults fills the timeline shape RunDrift and RunOnline share.
func (cfg DriftConfig) withDefaults() DriftConfig {
	cfg.Base.Executions = positive(cfg.Base.Executions, 60)
	cfg.Rates = nonEmpty(cfg.Rates, DefaultDriftRates)
	if cfg.Phases < 2 {
		cfg.Phases = DefaultDriftPhases
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	return cfg
}

// timeline is one drift rate's phased workload and the two advices
// every strategy of RunDrift and RunOnline starts from.
type timeline struct {
	// weights are each transaction's normalized weights per phase.
	weights []map[string]float64
	// start is advised once, on the mean of the phases a strategy that
	// never re-advises may know.
	start *search.Recommendation
	// series is AdviseSeries over the declared phases. Column family
	// builds are priced at migrate.DefaultCostParams(); the advisor sees
	// those prices scaled by 1/(phases·executions) so its per-execution
	// workload costs and the one-time build charges are on the same
	// footing as the measured run.
	series *search.SeriesRecommendation
}

// newTimeline advises one drift rate: start on the mean of the first
// known phases, series on all of them.
func newTimeline(f *fixture, rate float64, phases, known int) (*timeline, error) {
	tl := &timeline{weights: driftWeights(f.txns, rate, phases)}
	var err error
	tl.start, err = search.Advise(averageWorkload(f.w, f.txns, tl.weights[:known]), f.advisor)
	if err != nil {
		return nil, fmt.Errorf("static advise: %w", err)
	}
	phased := *f.w
	phased.Phases = driftPhases(f.w, f.txns, tl.weights)
	opts := f.advisor
	opts.Migration = migrate.DefaultCostParams().Scale(1 / (float64(phases) * float64(f.cfg.Executions)))
	tl.series, err = search.AdviseSeries(&phased, opts)
	if err != nil {
		return nil, fmt.Errorf("series advise: %w", err)
	}
	return tl, nil
}

// installOnce is the migration plan of a strategy that builds rec
// before phase 0 and never changes schema again.
func installOnce(rec *search.Recommendation, phases int) []*search.PhaseRecommendation {
	plan := make([]*search.PhaseRecommendation, phases)
	plan[0] = &search.PhaseRecommendation{Rec: rec, Build: rec.Schema.Indexes()}
	return plan
}

// serve drives sys through a timeline: before phase t it migrates
// stop-the-world to plan[t] where that is set, booking the charge into
// cell, then run executes the phase's transactions. Systems start empty
// and build their first schema through this same accounted path, so
// initial installation is charged to every strategy compared.
func serve(sys *harness.System, ds *backend.Dataset, plan []*search.PhaseRecommendation, cell *OnlineCell, run func(t int) error) error {
	for t, pr := range plan {
		if pr != nil {
			res, err := sys.Migrate(ds, pr, migrate.DefaultCostParams())
			if err != nil {
				return err
			}
			cell.MigrationMillis += res.SimMillis
			cell.FamiliesBuilt += len(res.Built)
			if len(res.Built) > 0 {
				cell.Migrations++
			}
		}
		if err := run(t); err != nil {
			return err
		}
	}
	return nil
}

// RunDrift sweeps drift rates over RUBiS and measures advise-once
// versus re-advise-per-phase on total simulated cost, migration charges
// included. Everything is deterministic: the same config and seed
// reproduce the same table at any worker count. At rate 0 the workload
// never changes, so re-advising buys nothing and the series advisor
// should keep one schema; as the rate grows, the phase workloads pull
// apart and mid-run migrations start paying for themselves.
func RunDrift(cfg DriftConfig) (*DriftResult, error) {
	cfg = cfg.withDefaults()
	f, err := newFixture(cfg.Base)
	if err != nil {
		return nil, err
	}
	sw := f.sweep("drift")
	res := &DriftResult{Phases: cfg.Phases, Executions: cfg.Base.Executions}
	for _, rate := range cfg.Rates {
		err := sw.cell(fmt.Sprintf("rate=%g", rate), func(c *cell) error {
			tl, err := newTimeline(f, rate, cfg.Phases, cfg.Phases)
			if err != nil {
				return err
			}
			row := DriftRow{Rate: rate}
			for _, strategy := range []struct {
				name string
				plan []*search.PhaseRecommendation
				cell *DriftCell
			}{
				{"Static", installOnce(tl.start, cfg.Phases), &row.Static},
				{"Readvised", tl.series.Phases, &row.Readvised},
			} {
				sys, err := c.system(harness.Config{Name: strategy.name})
				if err != nil {
					return err
				}
				// A drift cell is an online cell that can lose nothing.
				var total OnlineCell
				err = serve(sys, f.ds, strategy.plan, &total, func(t int) error {
					for ti, txn := range f.txns {
						// The same (seed, n) gives both systems identical
						// parameters.
						n := int(math.Round(tl.weights[t][txn.Name] * float64(cfg.Base.Executions)))
						millis, _, err := measure(sys, txn, n, f.params(cfg.Seed+int64(1000*t+ti)))
						if err != nil {
							return err
						}
						total.WorkloadMillis += sum(millis)
					}
					return nil
				})
				if err != nil {
					return err
				}
				*strategy.cell = DriftCell{
					WorkloadMillis:  total.WorkloadMillis,
					MigrationMillis: total.MigrationMillis,
					Migrations:      total.Migrations,
					FamiliesBuilt:   total.FamiliesBuilt,
				}
			}
			res.Rows = append(res.Rows, row)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Format renders the sweep as a comparison table.
func (r *DriftResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "drift sweep: %d phases, %d transactions/phase\n", r.Phases, r.Executions)
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %10s | %12s %12s %12s %10s %6s | %8s\n",
		"rate",
		"stat-work", "stat-mig", "stat-total", "stat-cf",
		"adv-work", "adv-mig", "adv-total", "adv-cf", "migs",
		"winner")
	for _, row := range r.Rows {
		winner := "static"
		if row.Readvised.TotalMillis() < row.Static.TotalMillis() {
			winner = "readvise"
		}
		fmt.Fprintf(&b, "%-6.2f %12.1f %12.1f %12.1f %10d | %12.1f %12.1f %12.1f %10d %6d | %8s\n",
			row.Rate,
			row.Static.WorkloadMillis, row.Static.MigrationMillis, row.Static.TotalMillis(), row.Static.FamiliesBuilt,
			row.Readvised.WorkloadMillis, row.Readvised.MigrationMillis, row.Readvised.TotalMillis(), row.Readvised.FamiliesBuilt,
			row.Readvised.Migrations, winner)
	}
	return b.String()
}
