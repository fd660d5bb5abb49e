// Command nosebench regenerates the paper's evaluation figures against
// the simulated record store:
//
//	nosebench -experiment fig11 [-users 20000] [-executions 50]
//	nosebench -experiment fig12 [-users 20000] [-executions 50]
//	nosebench -experiment fig13 [-factors 4]
//	nosebench -experiment budget
//	nosebench -experiment ablation
//	nosebench -experiment chaos [-faults 0,0.005,0.02,0.05] [-seed 7]
//	nosebench -experiment quorum [-faults 0,0.02,0.05,0.1] [-seed 7] [-nodes 5] [-rf 3]
//	nosebench -experiment crashchaos [-faults 0,0.02] [-seed 7] [-nodes 5] [-rf 3]
//	nosebench -experiment load [-clients 1,2,4,8,16,32,64] [-capacity 1] [-think 10] [-horizon 2000] [-seed 7] [-nodes 5] [-rf 3]
//	nosebench -experiment drift [-drift 0,0.25,0.5,1] [-phases 4] [-seed 7]
//	nosebench -experiment online [-drift 0,0.25,0.5,1] [-phases 4] [-seed 7] [-fault-rate 0.02] [-penalty 10] [-drift-window 40] [-drift-confirm 2]
//
// Every experiment accepts -workers n to bound advisor parallelism
// (0 uses all CPUs; results are identical for every value), and
// -cpuprofile/-memprofile to write pprof profiles of the run. The six
// experiments that draw random numbers (chaos, quorum, crashchaos, load,
// drift, online) take a single -seed that makes every published table
// reproducible bit for bit.
//
// Fig. 11: per-transaction response times for the RUBiS bidding
// workload on the NoSE, normalized, and expert schemas. Fig. 12:
// weighted average response times across workload mixes. Fig. 13:
// advisor runtime versus workload scale factor. Chaos: graceful
// degradation of the three schemas under injected store faults.
// Quorum: the availability/consistency trade of the NoSE schema on a
// replicated cluster (ONE/QUORUM/ALL, hedged reads, hinted handoff,
// read repair) under node-level faults. Load: the closed-loop
// latency-under-load sweep — per-node FIFO service queues, a client
// population swept to saturation, one throughput vs p50/p99 curve per
// consistency level plus the measured capacity table (knee point,
// saturation throughput). Crashchaos: the crash-recovery
// sweep — a hotel-workload live migration crashed at every journal
// append index per (consistency level, node fault rate) cell and
// recovered from the durable journal, plus coordinator crashes inside
// hinted handoff and read repair; every run must pass the invariant
// verifier (no acknowledged write lost, cutover agreement, no orphan
// families). Drift: a time-dependent RUBiS
// workload sliding from browsing toward write100 across -phases
// intervals, comparing a statically-advised schema against a
// re-advised schema series whose mid-run migrations are charged
// simulated time (see search.AdviseSeries). Online: the same drifting
// timeline served by three strategies — advise-once, the phase oracle,
// and an online loop whose drift detector re-advises on the observed
// statement mix and migrates live in the background (dual writes,
// bounded backfill chunks) — with lost transactions charged an SLA
// penalty, each drift rate measured clean and under node faults.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"nose/internal/bip"
	"nose/internal/drift"
	"nose/internal/experiments"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/search"
)

// result is what every experiment returns: its data table.
type result interface{ Format() string }

func main() {
	users := flag.Int("users", 20_000, "RUBiS users (the paper used 200000)")
	executions := flag.Int("executions", 50, "measured executions per transaction type")
	factors := flag.Int("factors", 4, "max scale factor for fig13 (the paper used 10; factors above 3 can take tens of minutes with the built-in solver)")
	maxPlans := flag.Int("max-plans", 24, "plan space bound per query for the advisor")
	space := flag.Float64("space", 0, "advisor space budget in MB; 0 means unlimited")
	maxNodes := flag.Int("max-nodes", 500, "branch and bound node budget per solve")
	workers := flag.Int("workers", 0, "advisor worker goroutines; 0 means all CPUs (results are identical for every value)")
	faultRates := flag.String("faults", "", "comma-separated fault rates for the chaos, quorum and crashchaos experiments")
	seed := flag.Int64("seed", 7, "seed for the chaos, quorum, load, crashchaos, drift and online experiments; the same seed reproduces a table bit for bit")
	nodes := flag.Int("nodes", 5, "cluster size for the quorum, load and crashchaos experiments")
	rf := flag.Int("rf", 3, "replication factor for the quorum, load and crashchaos experiments")
	clients := flag.String("clients", "", "comma-separated closed-loop client populations for the load experiment; empty means 1,2,4,8,16,32,64")
	capacity := flag.Int("capacity", experiments.DefaultLoadCapacity, "parallel servers per node for the load experiment's service queues")
	think := flag.Float64("think", experiments.DefaultLoadThinkMillis, "mean client think time in simulated ms for the load experiment")
	horizon := flag.Float64("horizon", experiments.DefaultLoadHorizonMillis, "simulated duration of each load cell in ms (first tenth is warmup)")
	driftRates := flag.String("drift", "", "comma-separated drift rates in [0,1] for the drift and online experiments")
	phases := flag.Int("phases", experiments.DefaultDriftPhases, "workload phases for the drift and online experiments")
	faultRate := flag.Float64("fault-rate", experiments.DefaultOnlineFaultRate, "node fault rate for the online experiment's faulted rows; 0 skips them")
	penalty := flag.Float64("penalty", experiments.DefaultOnlinePenaltyMillis, "SLA penalty in simulated ms per lost transaction in the online experiment; negative disables")
	driftWindow := flag.Int("drift-window", 0, "online experiment: drift detector window size in statements; 0 means the drift package default")
	driftConfirm := flag.Int("drift-confirm", 0, "online experiment: consecutive over-threshold windows required to trigger; 0 means the drift package default")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsPath := flag.String("metrics", "", "write a JSON metrics snapshot to this file and print a summary on exit")
	solverStats := flag.Bool("solver-stats", false, "print LP solver statistics on exit: solves, warm-start hit rate, phase-2 roots started from phase 1's basis, pivots, refactorizations, per phase whether the solve was proven optimal or stopped at the node limit (with its relative gap), pruning and cuts")
	tracePath := flag.String("trace", "", "write a Chrome trace (chrome://tracing, Perfetto) of the run to this file")

	// The experiments, in the order the help text lists them. Every run
	// reads its flags when called, after flag.Parse.
	var (
		opts           search.Options
		cfg            experiments.Fig11Config
		faults, drifts []float64
		populations    []int
	)
	table := []struct {
		name, title string
		run         func() (result, error)
	}{
		{"fig11", "Fig. 11 — bidding workload, average response time per transaction (simulated ms)",
			func() (result, error) { return experiments.RunFig11(cfg) }},
		{"fig12", "Fig. 12 — weighted average response time per workload mix (simulated ms)",
			func() (result, error) { return experiments.RunFig12(cfg) }},
		{"fig13", "Fig. 13 — advisor runtime vs workload scale factor",
			func() (result, error) {
				return experiments.RunFig13(experiments.Fig13Config{MaxFactor: *factors, Seed: 5, Advisor: opts})
			}},
		{"budget", "Ablation — workload cost vs storage budget (hotel booking workload)",
			func() (result, error) { return experiments.RunBudgetSweep(cfg, nil) }},
		{"ablation", "Ablation — advisor design choices on the bidding workload",
			func() (result, error) { return experiments.RunAblation(cfg) }},
		{"chaos", "Chaos — graceful degradation under injected store faults (bidding workload)",
			func() (result, error) {
				return experiments.RunChaos(experiments.ChaosConfig{Base: cfg, Rates: faults, Seed: *seed})
			}},
		{"quorum", "Quorum — availability/consistency sweep on a replicated cluster (NoSE schema, bidding workload)",
			func() (result, error) {
				return experiments.RunQuorum(experiments.QuorumConfig{Base: cfg, Rates: faults, Nodes: *nodes, RF: *rf, Seed: *seed})
			}},
		{"load", "Load — closed-loop latency under load with per-node service queues (NoSE schema, bidding workload)",
			func() (result, error) {
				return experiments.RunLoad(experiments.LoadConfig{
					Base: cfg, Clients: populations, Capacity: *capacity, Nodes: *nodes, RF: *rf,
					Seed: *seed, ThinkMillis: *think, HorizonMillis: *horizon,
				})
			}},
		{"crashchaos", "Crashchaos — crash-point sweep of a live migration with journal recovery and invariant verification (hotel workload)",
			func() (result, error) {
				return experiments.RunCrashChaos(experiments.CrashChaosConfig{
					Rates: faults, Nodes: *nodes, RF: *rf, Seed: *seed, Advisor: opts, Obs: cfg.Obs,
				})
			}},
		{"drift", "Drift — static-once vs re-advised schemas under workload drift (total simulated ms, migrations charged)",
			func() (result, error) {
				return experiments.RunDrift(experiments.DriftConfig{Base: cfg, Rates: drifts, Phases: *phases, Seed: *seed})
			}},
		{"online", "Online — advise-once vs phase oracle vs drift-detected live migration (total simulated ms, lost transactions penalized)",
			func() (result, error) {
				return experiments.RunOnline(experiments.OnlineConfig{
					Base: cfg, Rates: drifts, Phases: *phases, Seed: *seed,
					FaultRate: *faultRate, PenaltyMillis: *penalty,
					Detector: drift.Config{WindowStatements: *driftWindow, ConfirmWindows: *driftConfirm},
				})
			}},
	}
	var names []string
	for _, e := range table {
		names = append(names, e.name)
	}
	experiment := flag.String("experiment", "fig11", "one of "+strings.Join(names, ", "))
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	var reg *obs.Registry
	if *metricsPath != "" || *solverStats {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	defer func() {
		if err := obs.WriteFiles(os.Stdout, *metricsPath, reg, *tracePath, tracer, *solverStats); err != nil {
			fatal(err)
		}
	}()

	opts = search.Options{
		Workers:          *workers,
		Planner:          planner.Config{MaxPlansPerQuery: *maxPlans},
		MaxSupportPlans:  6,
		SpaceBudgetBytes: *space * 1e6,
		BIP:              bip.Options{MaxNodes: *maxNodes},
		Obs:              reg,
		Trace:            tracer,
	}
	cfg = experiments.Fig11Config{
		RUBiS:      rubis.Config{Users: *users, Seed: 1},
		Executions: *executions,
		Advisor:    opts,
		Obs:        reg,
		Trace:      tracer,
	}
	var err error
	if faults, err = parseRates(*faultRates); err != nil {
		fatal(err)
	}
	if drifts, err = parseRates(*driftRates); err != nil {
		fatal(err)
	}
	if populations, err = parseCounts(*clients); err != nil {
		fatal(err)
	}

	for _, e := range table {
		if e.name != *experiment {
			continue
		}
		res, err := e.run()
		if err != nil {
			fatal(err)
		}
		fmt.Println(e.title)
		fmt.Print(res.Format())
		return
	}
	fatal(fmt.Errorf("unknown experiment %q; want one of %s", *experiment, strings.Join(names, ", ")))
}

// parseRates parses a comma-separated rate list (fault or drift rates);
// empty means the experiment's default sweep.
func parseRates(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var rates []float64
	for _, field := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %w", field, err)
		}
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("rate %g outside [0, 1]", r)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// parseCounts parses a comma-separated list of positive integers (the
// load experiment's client populations); empty means the default sweep.
func parseCounts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var counts []int
	for _, field := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return nil, fmt.Errorf("bad count %q: %w", field, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("count %d must be positive", n)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nosebench:", err)
	os.Exit(1)
}
