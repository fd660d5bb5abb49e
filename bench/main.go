// Command bench is the repository's performance benchmark: one program
// that measures both end-to-end paths of ROADMAP aim 1 — a workload DSL
// POSTed to the advisor daemon until the result bytes come back, and a
// transaction entering the load generator until its rows return — and,
// in a second traced pass, a per-layer ledger under them.
//
// Usage:
//
//	go run ./bench -seed N                 every workload, both passes, one child process each
//	go run ./bench -workload W -trace 0|1  one workload, one pass, in this process
//	go run ./bench -selfcheck              the whole suite twice, compared against its own bounds
//
// Every output is verified against an independent reference (advisor
// results byte-compared with a single-worker library run, query rows
// compared with executor.Oracle, simulated metrics identical across
// segments); any miss is counted as a failed operation and the exit
// status is non-zero. The last line of standard output of a
// single-workload run is one JSON object with the keys correct,
// attempted, failed and metrics. BENCHMARK.json at the repository root
// names every metric; bench/README.md explains them.
//
// The program under test is only entered through its public functions;
// this package changes none of it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// metricDef declares one metric the benchmark prints. The tables below
// are the program's side of BENCHMARK.json; bench_test.go fails when
// the two drift apart.
type metricDef struct {
	name, unit string
	// bound is the share by which an end-to-end metric may worsen
	// before -selfcheck (and the PR driver) calls it a regression.
	bound float64
	// higher marks metrics where larger is better.
	higher bool
	// exact marks deterministic counts that must repeat bit-for-bit
	// for a seed.
	exact bool
}

// endToEnd lists what a user of either path sees. Every workload
// reports every entry; "op" is one advise request on the advisor
// workloads and one transaction on the data-plane workloads.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", bound: 0.25, higher: true},
	{name: "op_alloc_kb", unit: "KB", bound: 0.05},
	{name: "advise_cost", unit: "cost", bound: 0.07, exact: true},
}

// perLayer lists the traced pass's ledger, layer = module name. A
// workload that never enters a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{name: "service.http_ms", unit: "ms"},
	{name: "service.request_bytes", unit: "B", exact: true},
	{name: "service.result_bytes", unit: "B", exact: true},
	{name: "nosedsl.parse_ms", unit: "ms"},
	{name: "nosedsl.statements", unit: "count", exact: true},
	{name: "enumerator.enumerate_ms", unit: "ms"},
	{name: "enumerator.candidates", unit: "count", exact: true},
	{name: "planner.plan_spaces_ms", unit: "ms"},
	{name: "planner.plan_variables", unit: "count", exact: true},
	{name: "cost.cache_hit_share", unit: "ratio", higher: true},
	{name: "cost.cache_entries", unit: "count"},
	{name: "search.formulate_ms", unit: "ms"},
	{name: "search.constraints", unit: "count", exact: true},
	{name: "search.extract_ms", unit: "ms"},
	{name: "bip.solve_ms", unit: "ms"},
	{name: "bip.nodes", unit: "count", exact: true},
	{name: "bip.node_budget_share", unit: "ratio", exact: true},
	{name: "bip.pruned_bound", unit: "count", exact: true},
	{name: "lp.solves", unit: "count", exact: true},
	{name: "lp.pivots", unit: "count", exact: true},
	{name: "lp.refactors", unit: "count", exact: true},
	{name: "lp.warm_start_share", unit: "ratio", higher: true, exact: true},
	{name: "lp.us_per_pivot", unit: "us"},
	{name: "api.encode_ms", unit: "ms"},
	{name: "advise.wall_p50_ms", unit: "ms"},
	{name: "advise.wall_p90_ms", unit: "ms"},
	{name: "advise.wall_per_s", unit: "1/s", higher: true},
	{name: "load.wall_p50_us", unit: "us"},
	{name: "load.wall_per_s", unit: "1/s", higher: true},
	{name: "load.self_us", unit: "us"},
	{name: "harness.self_us", unit: "us"},
	{name: "harness.txn_p99_us", unit: "us"},
	{name: "harness.txn_p999_us", unit: "us"},
	{name: "harness.failovers", unit: "count", exact: true},
	{name: "harness.unavailable", unit: "count", exact: true},
	{name: "executor.self_us", unit: "us"},
	{name: "executor.statements_per_txn", unit: "count", exact: true},
	{name: "executor.retries", unit: "count", exact: true},
	{name: "store.get_us", unit: "us"},
	{name: "store.put_us", unit: "us"},
	{name: "store.calls_per_txn", unit: "count", exact: true},
	{name: "store.records_per_get", unit: "count", exact: true},
	{name: "coordinator.get_us", unit: "us"},
	{name: "coordinator.put_us", unit: "us"},
	{name: "coordinator.replica_reads_per_get", unit: "count", exact: true},
	{name: "coordinator.replica_writes_per_put", unit: "count", exact: true},
	{name: "coordinator.hints_queued", unit: "count", exact: true},
	{name: "coordinator.read_repairs", unit: "count", exact: true},
	{name: "queue.admit_ns", unit: "ns"},
	{name: "queue.admitted_per_txn", unit: "count", exact: true},
	{name: "queue.delay_sim_ms_per_txn", unit: "sim_ms", exact: true},
	{name: "queue.max_utilization", unit: "ratio", exact: true},
	{name: "sim.txn_mean_ms", unit: "sim_ms", exact: true},
	{name: "sim.txn_p99_ms", unit: "sim_ms", exact: true},
	{name: "sim.txn_per_s", unit: "1/sim_s", higher: true, exact: true},
	{name: "process.heap_peak_mb", unit: "MB"},
	{name: "process.gc_cpu_share", unit: "ratio"},
	{name: "process.trace_overhead_share", unit: "ratio"},
	{name: "process.segment_spread", unit: "ratio"},
}

// metricsOf returns the metrics one pass reports.
func metricsOf(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// workloadNames lists the workloads in the order the suite runs them.
var workloadNames = []string{"daemon-rubis", "advise-randwork", "txn-rubis-single", "load-rubis-quorum"}

// config sizes one run. The defaults are chosen for the 2-core
// reference host; bench_test.go shrinks them to a toy scale.
type config struct {
	workload string
	seed     int64
	// seconds is the wall-clock budget of the measured loop. Loops run
	// whole units of work (a cycle over the request variants, a load
	// segment) until it is spent, so every per-operation metric is
	// taken over identical work whatever the count.
	seconds  float64
	trace    bool
	traceDir string

	// setups is how many times set-up runs; setup_s takes every stage of
	// it at its fastest repetition.
	setups int
	// users scales the RUBiS dataset of the data-plane workloads.
	users int
	// variants is the number of weight-jittered RUBiS inputs daemon-rubis
	// cycles over. It must exceed the daemon's cache bound (8) so that
	// no request finds its cost cache warm.
	variants int
	// randFactor is the randwork scale factor of advise-randwork.
	randFactor int
	// oracleBindings is the number of seeded parameter bindings every
	// RUBiS query is checked with against executor.Oracle.
	oracleBindings int
	// singleSegmentMillis and quorumSegmentMillis are the simulated
	// horizons of one load.Run segment on the two data-plane workloads.
	singleSegmentMillis, quorumSegmentMillis float64
	// windowTxns is the number of consecutive transactions in one
	// window of the data plane's best-window estimate.
	windowTxns int
	// replayStatements bounds the statements the traced data-plane pass
	// replays to split loop, harness and executor time.
	replayStatements int
	// admitCalls is the number of NodeQueues.Admit calls timed directly.
	admitCalls int
}

func defaultConfig() config {
	return config{
		seed: 1, seconds: 20, traceDir: "bench/out",
		setups: 3, users: 10_000, variants: 16, randFactor: 3, oracleBindings: 6,
		singleSegmentMillis: 40_000, quorumSegmentMillis: 60_000, windowTxns: 1000,
		replayStatements: 20_000, admitCalls: 1_000_000,
	}
}

// metricValue is one reported number on the wire.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the single JSON object a one-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload hands back: the operations it attempted
// and verified, and its metric values by name.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// fail counts one failed operation and says why on standard error.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n failed operations with one explanation.
func (o *outcome) failN(n int64, format string, args ...any) {
	o.failed += n
	fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(cfg config) (*result, error) {
	o := &outcome{values: map[string]float64{}}
	var err error
	switch cfg.workload {
	case "daemon-rubis", "advise-randwork":
		err = runAdvisor(cfg, o)
	case "txn-rubis-single", "load-rubis-quorum":
		err = runDataPlane(cfg, o)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range metricsOf(cfg.trace) {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		delete(o.values, d.name)
	}
	for name := range o.values {
		return nil, fmt.Errorf("workload %s set undeclared metric %s", cfg.workload, name)
	}
	return res, nil
}

// printResult writes the human-readable table, then the result line.
func printResult(cfg config, res *result) error {
	fmt.Printf("workload %s seed %d trace %v: attempted %d failed %d\n",
		cfg.workload, cfg.seed, cfg.trace, res.Attempted, res.Failed)
	for _, d := range metricsOf(cfg.trace) {
		fmt.Printf("  %-36s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// suiteRun is every workload's two passes, keyed by workload name.
type suiteRun map[string][2]*result

// runSuite runs both passes of every workload, each in a fresh child
// process so that one workload's heap and GC pacing cannot leak into
// the next.
func runSuite(cfg config) (suiteRun, bool, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	out := suiteRun{}
	ok := true
	for _, name := range workloadNames {
		var pair [2]*result
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self,
				"-workload", name, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace), "-trace-dir", cfg.traceDir)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			res := &result{}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
				return nil, false, fmt.Errorf("workload %s trace %d: no result line (%v): %v", name, trace, runErr, err)
			}
			if runErr != nil || !res.Correct {
				ok = false
			}
			pair[trace] = res
		}
		out[name] = pair
	}
	return out, ok, nil
}

// selfcheck runs the suite twice back to back and fails if any
// end-to-end metric differs by more than its bound, or any exact metric
// differs at all, printing both values.
func selfcheck(cfg config) (bool, error) {
	first, ok1, err := runSuite(cfg)
	if err != nil {
		return false, err
	}
	second, ok2, err := runSuite(cfg)
	if err != nil {
		return false, err
	}
	ok := ok1 && ok2
	fmt.Println("selfcheck: first run vs second run")
	for _, name := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			for _, d := range metricsOf(trace == 1) {
				a := first[name][trace].Metrics[d.name].Value
				b := second[name][trace].Metrics[d.name].Value
				verdict := "ok"
				switch {
				case d.exact && a != b:
					verdict = "FAIL (exact metric moved)"
				case trace == 0 && !d.exact && relDiff(a, b) > d.bound:
					verdict = fmt.Sprintf("FAIL (beyond bound %.0f%%)", 100*d.bound)
				case trace == 1 && !d.exact:
					verdict = "" // per-layer timings carry no bound
				}
				if strings.HasPrefix(verdict, "FAIL") {
					ok = false
				}
				if verdict != "" {
					fmt.Printf("  %-18s %-36s %16.6g %16.6g %s  %s\n", name, d.name, a, b, d.unit, verdict)
				}
			}
		}
	}
	return ok, nil
}

// relDiff is the difference of two readings as a share of the smaller.
func relDiff(a, b float64) float64 {
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / lo
}

// median returns the middle of the values (mean of the two middle ones
// for an even count); it sorts a copy.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// least returns the smallest of the values. Interference on a shared
// host only ever slows an operation down, so the fastest repetition of
// identical work is the steadiest estimate of the code's own speed.
func least(values []float64) float64 {
	m := math.Inf(1)
	for _, v := range values {
		m = math.Min(m, v)
	}
	return m
}

// laps clocks the consecutive stages of one set-up.
type laps struct {
	last    time.Time
	seconds []float64
}

func startLaps() *laps { return &laps{last: time.Now()} }

// lap ends the current stage.
func (l *laps) lap() {
	now := time.Now()
	l.seconds = append(l.seconds, now.Sub(l.last).Seconds())
	l.last = now
}

// bestSetup is the set-up time with every stage at its fastest
// repetition. Set-up runs the same stages each time, and a stage (one
// reference advise, one install, one query's oracle check) is short
// enough to fit between two episodes of the host's interference where
// a whole set-up is not.
func bestSetup(reps []*laps) float64 {
	sum := 0.0
	for stage := range reps[0].seconds {
		best := math.Inf(1)
		for _, rep := range reps {
			best = math.Min(best, rep.seconds[stage])
		}
		sum += best
	}
	return sum
}

// quantile returns the nearest-rank q-quantile; it sorts a copy.
func quantile(values []float64, q float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// div is a/b, or 0 when the layer that would count b was never entered.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func main() {
	cfg := defaultConfig()
	trace := 0
	check := false
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", ")+" (default: all, one child process each)")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of every random choice the benchmark makes")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "wall-clock seconds one pass measures for")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics (single workload only)")
	flag.StringVar(&cfg.traceDir, "trace-dir", cfg.traceDir, "directory the traced pass writes trace-<workload>.json into")
	flag.BoolVar(&check, "selfcheck", false, "run the whole suite twice and compare the runs against the benchmark's own bounds")
	flag.Parse()
	cfg.trace = trace == 1

	ok := false
	var err error
	switch {
	case check:
		ok, err = selfcheck(cfg)
	case cfg.workload == "":
		_, ok, err = runSuite(cfg)
	default:
		var res *result
		if res, err = runWorkload(cfg); err == nil {
			err = printResult(cfg, res)
			ok = res.Correct
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}
