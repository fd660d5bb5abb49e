package experiments

import (
	"fmt"
	"strings"

	"nose/internal/executor"
	"nose/internal/harness"
	"nose/internal/load"
)

// LoadConfig parameterizes the latency-under-load sweep: the
// NoSE-recommended schema on a replicated cluster with per-node FIFO
// service queues, driven by a closed-loop client population swept from
// light load to saturation, per consistency level.
type LoadConfig struct {
	// Base configures the dataset, mix and advisor as in Fig. 11
	// (Executions is unused — the horizon bounds the run instead).
	Base Fig11Config
	// Clients is the swept closed-loop population sizes; empty means
	// DefaultLoadClients.
	Clients []int
	// Capacity is each node's parallel-server count; zero means
	// DefaultLoadCapacity.
	Capacity int
	// Nodes and RF shape the cluster; zero means the harness defaults.
	Nodes, RF int
	// Seed drives the load generator's think-time and mix draws; the
	// same seed is reused for every cell so cells differ only in load.
	Seed int64
	// ThinkMillis is the mean client think time; zero means
	// DefaultLoadThinkMillis.
	ThinkMillis float64
	// HorizonMillis is each cell's simulated duration; zero means
	// DefaultLoadHorizonMillis. The first tenth is warmup.
	HorizonMillis float64
}

// Default sweep shape: a population doubling from 1 to 64 against
// single-server nodes saturates the default 5-node cluster inside the
// sweep at every consistency level.
var DefaultLoadClients = []int{1, 2, 4, 8, 16, 32, 64}

const (
	// DefaultLoadCapacity is one server per node: the strictest FIFO
	// station, which makes the saturation knee land early enough for
	// CI-sized sweeps.
	DefaultLoadCapacity = 1
	// DefaultLoadThinkMillis is the closed-loop mean think time.
	DefaultLoadThinkMillis = 10
	// DefaultLoadHorizonMillis is each cell's simulated duration.
	DefaultLoadHorizonMillis = 2000
	// loadKneeP99Factor defines the saturation knee: the largest
	// population whose p99 stays within this factor of the lightest
	// load's p99. Past the knee, queueing makes p99 grow superlinearly
	// with offered load.
	loadKneeP99Factor = 3.0
)

// LoadCell is one (consistency level, client population) measurement.
type LoadCell struct {
	// Clients is the closed-loop population.
	Clients int
	// Started, Completed, Unavailable and Lost count transactions.
	Started, Completed, Unavailable, Lost int64
	// ThroughputPerSec is completed transactions per simulated second
	// in the measurement window.
	ThroughputPerSec float64
	// P50Millis and P99Millis are response-time percentiles, queue
	// delay included.
	P50Millis, P99Millis float64
	// QueueDelayMillis is the total simulated queue wait charged;
	// MaxUtilization is the busiest node's service utilization;
	// MaxDepth is the deepest queue observed on any node.
	QueueDelayMillis float64
	MaxUtilization   float64
	MaxDepth         int
}

// LoadCurve is one consistency level's throughput/latency curve plus
// its measured capacity: the saturation knee and peak throughput.
type LoadCurve struct {
	// Level is the read+write consistency level measured.
	Level executor.Consistency
	// Cells are the sweep points in Clients order.
	Cells []LoadCell
	// KneeClients is the largest population whose p99 stays within
	// loadKneeP99Factor of the lightest load's p99 — the capacity
	// operating point; KneeThroughputPerSec and KneeP99Millis are its
	// coordinates. Zero when even the lightest load is past the knee.
	KneeClients          int
	KneeThroughputPerSec float64
	KneeP99Millis        float64
	// SaturationPerSec is the peak throughput across the sweep.
	SaturationPerSec float64
}

// LoadResult is the full sweep.
type LoadResult struct {
	// Nodes, RF and Capacity record the cluster shape measured.
	Nodes, RF, Capacity int
	// ThinkMillis and HorizonMillis record the client shape.
	ThinkMillis, HorizonMillis float64
	// Curves has one entry per consistency level, in DefaultQuorumLevels
	// order.
	Curves []LoadCurve
}

// RunLoad sweeps closed-loop client populations over the
// NoSE-recommended schema on a replicated cluster with per-node FIFO
// service queues, one curve per consistency level. Reads at ONE
// contact one replica and saturate latest; ALL fans every operation to
// the full replica set and hits the service-capacity wall soonest —
// the consistency knob priced in capacity, not just per-statement
// cost. Everything is deterministic: the same config and seed
// reproduce the same table bit for bit at any advisor worker count.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	clients := nonEmpty(cfg.Clients, DefaultLoadClients)
	capacity := positive(cfg.Capacity, DefaultLoadCapacity)
	think := positive(cfg.ThinkMillis, DefaultLoadThinkMillis)
	horizon := positive(cfg.HorizonMillis, DefaultLoadHorizonMillis)
	f, err := newAdvisedFixture(cfg.Base)
	if err != nil {
		return nil, err
	}

	repl := harness.ReplicationConfig{Nodes: cfg.Nodes, RF: cfg.RF}.Normalized()
	sw := f.sweep("load")
	res := &LoadResult{
		Nodes: repl.Nodes, RF: repl.RF, Capacity: capacity,
		ThinkMillis: think, HorizonMillis: horizon,
	}
	for _, level := range DefaultQuorumLevels {
		curve := LoadCurve{Level: level}
		for _, n := range clients {
			// A fresh cluster per cell: each cell mutates its own stores
			// and queues, so cells reproduce in isolation.
			err := sw.cell(fmt.Sprintf("%s clients=%d", level, n), func(c *cell) error {
				rc := repl
				rc.Read, rc.Write = level, level
				sys, err := c.system(harness.Config{Name: "NoSE", Rec: f.recs["NoSE"], Replication: &rc})
				if err != nil {
					return err
				}
				q := sys.EnableQueues(capacity)
				r, err := load.Run(sys, f.work, f.params(paramSeed).Params, q, load.Options{
					Clients:       n,
					ThinkMillis:   think,
					HorizonMillis: horizon,
					WarmupMillis:  horizon / 10,
					Seed:          cfg.Seed,
				})
				if err != nil {
					return err
				}
				curve.Cells = append(curve.Cells, LoadCell{
					Clients:          n,
					Started:          r.Started,
					Completed:        r.Completed,
					Unavailable:      r.Unavailable,
					Lost:             r.Lost,
					ThroughputPerSec: r.ThroughputPerSec,
					P50Millis:        r.P50Millis,
					P99Millis:        r.P99Millis,
					QueueDelayMillis: r.QueueDelayMillis,
					MaxUtilization:   r.MaxUtilization,
					MaxDepth:         r.MaxDepth,
				})
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		measureCapacity(&curve)
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// measureCapacity derives a curve's knee point and saturation
// throughput from its cells (assumed in increasing-population order).
func measureCapacity(c *LoadCurve) {
	if len(c.Cells) == 0 {
		return
	}
	base := c.Cells[0].P99Millis
	for _, cell := range c.Cells {
		if cell.ThroughputPerSec > c.SaturationPerSec {
			c.SaturationPerSec = cell.ThroughputPerSec
		}
		if base > 0 && cell.P99Millis <= loadKneeP99Factor*base {
			c.KneeClients = cell.Clients
			c.KneeThroughputPerSec = cell.ThroughputPerSec
			c.KneeP99Millis = cell.P99Millis
		}
	}
}

// Format renders the sweep: one throughput vs p50/p99 curve per
// consistency level, then the measured capacity table (knee point and
// saturation throughput per level).
func (r *LoadResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d nodes, RF %d, %d server(s)/node; closed loop, think %gms, horizon %gms\n",
		r.Nodes, r.RF, r.Capacity, r.ThinkMillis, r.HorizonMillis)
	for _, curve := range r.Curves {
		fmt.Fprintf(&b, "\n%s\n", curve.Level)
		fmt.Fprintf(&b, "%-8s %12s %10s %10s %12s %8s %7s\n",
			"Clients", "Tput(tx/s)", "p50(ms)", "p99(ms)", "QDelay(ms)", "MaxUtil", "Depth")
		for _, c := range curve.Cells {
			fmt.Fprintf(&b, "%-8d %12.1f %10.3f %10.3f %12.1f %7.0f%% %7d\n",
				c.Clients, c.ThroughputPerSec, c.P50Millis, c.P99Millis,
				c.QueueDelayMillis, 100*c.MaxUtilization, c.MaxDepth)
		}
	}
	fmt.Fprintf(&b, "\nCapacity — knee (p99 within %gx of light load) and saturation per level\n", loadKneeP99Factor)
	fmt.Fprintf(&b, "%-8s %14s %16s %12s %18s\n",
		"Level", "Knee(clients)", "KneeTput(tx/s)", "KneeP99(ms)", "Saturation(tx/s)")
	for _, curve := range r.Curves {
		fmt.Fprintf(&b, "%-8s %14d %16.1f %12.3f %18.1f\n",
			curve.Level, curve.KneeClients, curve.KneeThroughputPerSec,
			curve.KneeP99Millis, curve.SaturationPerSec)
	}
	return b.String()
}
