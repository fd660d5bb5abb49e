package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/load"
)

// QuorumConfig parameterizes the availability/consistency sweep. The
// sweep reuses Fig. 11's dataset and workload mix, but installs the
// NoSE-recommended schema on a replicated cluster and measures, per
// (consistency level, node fault rate) cell, what consistency costs:
// tail latency, lost transactions, and stale reads.
type QuorumConfig struct {
	// Base configures the dataset, mix, executions and advisor exactly
	// as in Fig. 11.
	Base Fig11Config
	// Rates is the sweep of node fault rates (each split into
	// flaky/slow/down bands by faults.NodeRate); empty means
	// DefaultQuorumRates.
	Rates []float64
	// Nodes and RF shape the cluster; zero means the harness defaults
	// (5 nodes, RF 3).
	Nodes, RF int
	// Seed seeds the node fault domains; the same seed reproduces the
	// whole sweep bit for bit.
	Seed int64
}

// DefaultQuorumRates is the default node fault sweep, from a healthy
// cluster to one where a tenth of replica operations fault.
var DefaultQuorumRates = []float64{0, 0.02, 0.05, 0.1}

// DefaultQuorumLevels compares the three classic consistency levels,
// each used for both reads and writes.
var DefaultQuorumLevels = []executor.Consistency{executor.One, executor.Quorum, executor.All}

// QuorumCell is one (consistency level, node fault rate) measurement.
type QuorumCell struct {
	// P50Millis and P99Millis are latency percentiles over the
	// simulated response times of completed transactions.
	P50Millis, P99Millis float64
	// Completed and Unavailable partition the attempted transactions.
	Completed, Unavailable int64
	// UnavailableRate is Unavailable over all attempts.
	UnavailableRate float64
	// StaleReadRate is the coordinator's stale reads over its
	// coordinated reads.
	StaleReadRate float64
	// Report is the system's cumulative robustness ledger for this
	// cell, replication counters included.
	Report harness.RobustnessReport
}

// QuorumRow is one node fault rate's measurements across consistency
// levels, keyed by level name (ONE/QUORUM/ALL).
type QuorumRow struct {
	// Rate is the injected node fault rate.
	Rate float64
	// Cells maps consistency level name to its measurement.
	Cells map[string]QuorumCell
}

// QuorumResult is the full sweep.
type QuorumResult struct {
	// Levels orders the compared consistency levels.
	Levels []executor.Consistency
	// Nodes and RF record the cluster shape measured.
	Nodes, RF int
	// Rows has one entry per node fault rate, in Rates order.
	Rows []QuorumRow
}

// RunQuorum sweeps node fault rates and consistency levels over the
// NoSE-recommended schema on a replicated cluster. It measures the
// availability/consistency trade the paper's target systems expose as
// a knob: ONE stays fast and available but serves stale reads while
// hinted handoff is pending; ALL never reads stale but goes unavailable
// the moment a replica set loses a node; QUORUM pays bounded extra
// latency for both. Everything is deterministic: the same config and
// seed reproduce the same result at any advisor worker count.
func RunQuorum(cfg QuorumConfig) (*QuorumResult, error) {
	cfg.Base.Executions = positive(cfg.Base.Executions, 20)
	rates := nonEmpty(cfg.Rates, DefaultQuorumRates)
	f, err := newAdvisedFixture(cfg.Base)
	if err != nil {
		return nil, err
	}

	repl := harness.ReplicationConfig{Nodes: cfg.Nodes, RF: cfg.RF}.Normalized()
	sw := f.sweep("quorum")
	res := &QuorumResult{Levels: DefaultQuorumLevels, Nodes: repl.Nodes, RF: repl.RF}
	for _, rate := range rates {
		row := QuorumRow{Rate: rate, Cells: map[string]QuorumCell{}}
		for _, level := range res.Levels {
			// A fresh cluster per cell: each cell mutates its own
			// stores and fault streams, so cells never contaminate
			// each other and any one cell reproduces in isolation.
			err := sw.cell(fmt.Sprintf("rate=%g %s", rate, level), func(c *cell) error {
				rc := repl
				rc.Read, rc.Write, rc.Hedge = level, level, executor.HedgePolicy{Enabled: true}
				sys, err := c.system(harness.Config{
					Name: "NoSE", Rec: f.recs["NoSE"], Replication: &rc,
					NodeWeather: &harness.NodeWeather{Seed: cfg.Seed, Profile: faults.NodeRate(rate)},
				})
				if err != nil {
					return err
				}
				cell := QuorumCell{}
				var latencies []float64
				for _, txn := range f.active {
					millis, lost, err := measure(sys, txn, cfg.Base.Executions, f.params(paramSeed), harness.ErrUnavailable)
					if err != nil {
						return err
					}
					latencies = append(latencies, millis...)
					cell.Unavailable += lost
				}
				cell.Completed = int64(len(latencies))
				sort.Float64s(latencies)
				cell.P50Millis = load.Percentile(latencies, 0.50)
				cell.P99Millis = load.Percentile(latencies, 0.99)
				if n := cell.Completed + cell.Unavailable; n > 0 {
					cell.UnavailableRate = float64(cell.Unavailable) / float64(n)
				}
				cell.Report = sys.Robustness()
				if cell.Report.Replica.Reads > 0 {
					cell.StaleReadRate = float64(cell.Report.Replica.StaleReads) / float64(cell.Report.Replica.Reads)
				}
				row.Cells[level.String()] = cell
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the sweep as a data table: per node fault rate and
// consistency level, the latency percentiles of completed transactions,
// the share lost to unavailability, the stale-read rate, and the
// recovery work (hints, repairs, hedges) spent surviving.
func (r *QuorumResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d nodes, RF %d\n", r.Nodes, r.RF)
	fmt.Fprintf(&b, "%-8s %-8s %10s %10s %9s %8s %8s %8s %8s\n",
		"Rate", "Level", "p50(ms)", "p99(ms)", "Unavail", "Stale", "Hints", "Repairs", "Hedges")
	for _, row := range r.Rows {
		for _, level := range r.Levels {
			c := row.Cells[level.String()]
			fmt.Fprintf(&b, "%-8.3f %-8s %10.3f %10.3f %8.1f%% %7.2f%% %8d %8d %8d\n",
				row.Rate, level, c.P50Millis, c.P99Millis,
				100*c.UnavailableRate, 100*c.StaleReadRate,
				c.Report.Replica.HintsQueued, c.Report.Replica.ReadRepairs, c.Report.Replica.Hedges)
		}
	}
	return b.String()
}
