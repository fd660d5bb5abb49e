package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/harness"
	"nose/internal/load"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/workload"
)

// Seeds of the data plane's independent random streams, as offsets from
// -seed: the dataset, the advised weights' jitter, the oracle check's
// bindings, the transactions' bindings, and the load generator's mix
// and think-time draws.
const (
	datasetSeedOffset = iota
	adviseSeedOffset
	oracleSeedOffset
	paramSeedOffset
	loadSeedOffset
)

// traceStatements is how many replayed statements the traced pass
// records span by span for the trace file, after the clocked replay.
const traceStatements = 2000

// plane is a data-plane workload after set-up: a RUBiS dataset, the
// schema the advisor recommends for it, and the transaction mix.
type plane struct {
	cfg    config
	quorum bool
	rubis  rubis.Config
	ds     *backend.Dataset
	rec    *search.Recommendation
	work   []load.Transaction
	lat    cost.Params
	opts   load.Options
}

// setupPlane generates the dataset, advises the schema, installs it
// once and checks every query's rows against the oracle, one lap each.
func setupPlane(cfg config, l *laps, o *outcome) (*plane, error) {
	p := &plane{
		cfg: cfg, quorum: cfg.workload == "load-rubis-quorum",
		rubis: rubis.Config{Users: cfg.users, Seed: cfg.seed + datasetSeedOffset},
		lat:   cost.DefaultParams(),
	}
	var err error
	if p.ds, err = rubis.Generate(p.rubis); err != nil {
		return nil, err
	}
	l.lap()
	w, txns, err := rubis.Workload(p.ds.Graph)
	if err != nil {
		return nil, err
	}
	// The seeded weight jitter of the advisor workloads, so that the
	// schema under test, too, is an input made from -seed.
	advised := jitteredCopy(w, rand.New(rand.NewSource(cfg.seed+adviseSeedOffset)))
	if p.rec, err = search.Advise(advised, search.Options{}); err != nil {
		return nil, err
	}
	// One client with no think time puts nothing but load, harness,
	// executor and store on the path; sixteen clients at QUORUM with
	// tenfold writes put the coordinator fan-out and the queues on it.
	mix := rubis.MixBidding
	p.opts = load.Options{Clients: 1, HorizonMillis: cfg.singleSegmentMillis, Seed: cfg.seed + loadSeedOffset}
	if p.quorum {
		mix = rubis.MixWrite10
		p.opts.Clients, p.opts.ThinkMillis, p.opts.HorizonMillis = 16, 10, cfg.quorumSegmentMillis
	}
	for _, txn := range txns {
		p.work = append(p.work, load.Transaction{
			Name: txn.Name, Statements: txn.Statements, Weight: rubis.TransactionWeight(txn, mix),
		})
	}
	l.lap()

	sys, _, err := p.install()
	if err != nil {
		return nil, err
	}
	l.lap()
	bindings := rubis.NewParamSource(p.rubis, cfg.seed+oracleSeedOffset)
	for _, qr := range p.rec.Queries {
		for i := 0; i < cfg.oracleBindings; i++ {
			params := bindings.Params("")
			o.attempted++
			got, err := sys.Exec.ExecuteQuery(qr.Plan, params)
			if err != nil {
				o.fail("oracle check: %v", err)
				continue
			}
			if msg, err := checkRows(p.ds, qr.Plan.Query, params, got.Rows); err != nil {
				return nil, err
			} else if msg != "" {
				o.fail("oracle check: query %s: %s", workload.Label(qr.Plan.Query), msg)
			}
		}
		l.lap()
	}
	return p, nil
}

// checkRows compares a query's rows with executor.Oracle over the
// dataset and describes the mismatch, if any. A LIMIT leaves the choice
// of rows to the plan, so a limited query must return the right number
// of rows, all of them from the unlimited answer.
func checkRows(ds *backend.Dataset, q *workload.Query, params executor.Params, got []executor.Tuple) (string, error) {
	unlimited := *q
	unlimited.Limit = 0
	all, err := executor.Oracle(ds, &unlimited, params)
	if err != nil {
		return "", err
	}
	have, want := executor.CanonicalRows(got), executor.CanonicalRows(all)
	if q.Limit == 0 {
		if !slices.Equal(have, want) {
			return fmt.Sprintf("returned %d rows that differ from the oracle's %d", len(have), len(want)), nil
		}
		return "", nil
	}
	if len(have) != min(q.Limit, len(want)) {
		return fmt.Sprintf("returned %d rows of the oracle's %d under LIMIT %d", len(have), len(want), q.Limit), nil
	}
	known := map[string]bool{}
	for _, row := range want {
		known[row] = true
	}
	for _, row := range have {
		if !known[row] {
			return "returned a row the oracle does not have: " + row, nil
		}
	}
	return "", nil
}

// install loads the recommended schema into a fresh system: one store,
// or five nodes at RF 3 with QUORUM reads and writes and one server per
// node queue.
func (p *plane) install() (*harness.System, *backend.NodeQueues, error) {
	if !p.quorum {
		sys, err := harness.NewSystem("NoSE", p.ds, p.rec, p.lat)
		return sys, nil, err
	}
	sys, err := harness.NewReplicatedSystem("NoSE", p.ds, p.rec, p.lat, harness.ReplicationConfig{
		Nodes: 5, RF: 3, Read: executor.Quorum, Write: executor.Quorum,
	})
	if err != nil {
		return nil, nil, err
	}
	return sys, sys.EnableQueues(1), nil
}

// call is one recorded transaction arrival.
type call struct {
	txn    string
	params executor.Params
}

// segment is what one load.Run on one fresh system measured.
type segment struct {
	res        *load.Result
	wall       time.Duration
	allocBytes uint64
	heapInuse  uint64
	// gaps are the wall nanoseconds between consecutive arrivals: the
	// benchmark's ParamFunc is the one callback load.Run gives its
	// caller, invoked once per transaction.
	gaps []float64
	// calls is the arrival sequence, kept only when asked for.
	calls []call
	obs   *obs.Snapshot
}

func (s *segment) perSecond() float64 { return float64(s.res.Completed) / s.wall.Seconds() }

// runSegment runs load.Run once and verifies that nothing failed.
func (p *plane) runSegment(sys *harness.System, q *backend.NodeQueues, record bool, o *outcome) (*segment, error) {
	source := rubis.NewParamSource(p.rubis, p.cfg.seed+paramSeedOffset)
	seg := &segment{}
	stamps := make([]time.Time, 0, 1<<16)
	params := func(txn string) executor.Params {
		ps := source.Params(txn)
		if record {
			seg.calls = append(seg.calls, call{txn, ps})
		}
		stamps = append(stamps, time.Now())
		return ps
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	res, err := load.Run(sys, p.work, params, q, p.opts)
	seg.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	seg.allocBytes, seg.heapInuse = ms.TotalAlloc-alloc0, ms.HeapInuse
	seg.res = res
	for i := 1; i < len(stamps); i++ {
		seg.gaps = append(seg.gaps, float64(stamps[i].Sub(stamps[i-1]).Nanoseconds()))
	}
	seg.obs = sys.Obs().Snapshot()
	o.attempted += res.Started
	if bad := res.Started - res.Completed; bad != 0 {
		o.failN(bad, "%d of %d transactions did not complete (%d unavailable, %d lost)",
			bad, res.Started, res.Unavailable, res.Lost)
	}
	return seg, nil
}

// runDataPlane runs one pass of a data-plane workload.
func runDataPlane(cfg config, o *outcome) error {
	var p *plane
	var setups []*laps
	for i := 0; i < cfg.setups; i++ {
		l := startLaps()
		var err error
		if p, err = setupPlane(cfg, l, o); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, l)
	}
	if cfg.trace {
		return p.runTraced(o)
	}
	segs, err := p.runSegments(cfg.seconds, nil, o)
	if err != nil {
		return err
	}
	var gaps [][]float64
	var alloc uint64
	var completed int64
	for _, seg := range segs {
		gaps = append(gaps, seg.gaps)
		alloc += seg.allocBytes
		completed += seg.res.Completed
	}
	p50, perSecond := bestWindow(gaps, cfg.windowTxns)
	o.set("setup_s", bestSetup(setups))
	o.set("op_p50_ms", p50/1e6)
	o.set("ops_per_s", perSecond)
	o.set("op_alloc_kb", float64(alloc)/1024/float64(completed))
	o.set("advise_cost", p.rec.Cost)
	return nil
}

// runSegments runs plain segments until the budget is spent. Every
// segment starts from a freshly installed system with the same seeds,
// so all of them must report the same simulated result.
func (p *plane) runSegments(seconds float64, led *ledger, o *outcome) ([]*segment, error) {
	var segs []*segment
	start := time.Now()
	for len(segs) == 0 || time.Since(start).Seconds() < seconds {
		sys, q, err := p.install()
		if err != nil {
			return nil, err
		}
		sp := led.begin("load.Run")
		seg, err := p.runSegment(sys, q, false, o)
		sp.End()
		if err != nil {
			return nil, err
		}
		if len(segs) > 0 && *seg.res != *segs[0].res {
			o.fail("segment %d: simulated result %+v differs from segment 0's %+v", len(segs), *seg.res, *segs[0].res)
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// bestWindow cuts every segment's gaps (nanoseconds) into windows of w
// consecutive transactions and returns the lowest median gap and the
// highest transaction rate any window reached. The host's interference
// comes in episodes of seconds and only ever slows a window down, and a
// window is some tens of milliseconds, so the best window is the one
// the host left alone; medians over whole segments move by a third
// between runs of the same code here.
func bestWindow(segments [][]float64, w int) (p50Nanos, perSecond float64) {
	p50Nanos = math.Inf(1)
	for _, gaps := range segments {
		for ; len(gaps) >= w; gaps = gaps[w:] {
			sum := 0.0
			for _, g := range gaps[:w] {
				sum += g
			}
			p50Nanos = math.Min(p50Nanos, median(gaps[:w]))
			perSecond = math.Max(perSecond, float64(w)/(sum/1e9))
		}
	}
	return p50Nanos, perSecond
}

// step is one statement of a recorded transaction arrival.
type step struct {
	st     workload.Statement
	params executor.Params
}

// replayer is a fresh system whose exported executor has been swapped
// for one over a timedKV around the same backend, keeping the system's
// metrics registry. The traced pass runs recorded work on it.
type replayer struct {
	sys *harness.System
	q   *backend.NodeQueues
	kv  *timedKV
	// now is the queues' arrival clock between runs.
	now float64
}

func (p *plane) newReplayer() (*replayer, error) {
	sys, q, err := p.install()
	if err != nil {
		return nil, err
	}
	kv := &timedKV{inner: sys.Store, layer: "store"}
	if sys.Coord != nil {
		kv = &timedKV{inner: sys.Coord, layer: "coordinator"}
	}
	sys.Exec = executor.New(kv, p.lat)
	sys.Exec.SetObs(sys.Obs())
	return &replayer{sys: sys, q: q, kv: kv}, nil
}

// run executes the steps one at a time, advancing the queues' clock as
// load.Run does for a single client, and returns the wall time.
func (r *replayer) run(steps []step, exec func(step) (float64, error)) (time.Duration, error) {
	start := time.Now()
	for _, s := range steps {
		if r.q != nil {
			r.q.SetNow(r.now)
		}
		ms, err := exec(s)
		if err != nil {
			return 0, fmt.Errorf("replaying %s: %w", workload.Label(s.st), err)
		}
		r.now += ms
	}
	return time.Since(start), nil
}

// runTraced produces the data plane's per-layer ledger. The program
// emits no wall-clock spans below harness.ExecStatement, so the split
// comes from running the same recorded arrivals three ways with the
// backend clocked: through load.Run, through sys.ExecStatement, and
// straight through the executor.
func (p *plane) runTraced(o *outcome) error {
	led := newLedger()
	gc0 := readGCCPU()

	// Plain segments for half the budget: the untraced baseline, the
	// wall-clock tails and the segment-to-segment spread.
	plain, err := p.runSegments(p.cfg.seconds/2, led, o)
	if err != nil {
		return err
	}
	base := plain[0]
	txns := float64(base.res.Started)

	// The same segment with every backend call clocked.
	c, err := p.newReplayer()
	if err != nil {
		return err
	}
	sp := led.begin("load.Run, backend clocked")
	clocked, err := p.runSegment(c.sys, c.q, true, o)
	sp.End()
	if err != nil {
		return err
	}
	if *clocked.res != *base.res {
		o.fail("clocked segment: simulated result %+v differs from the plain segment's %+v", *clocked.res, *base.res)
	}

	// Its first statements again, through the harness and straight
	// through the executor.
	statements := map[string][]workload.Statement{}
	for _, t := range p.work {
		statements[t.Name] = t.Statements
	}
	var steps []step
	for _, call := range clocked.calls {
		for _, st := range statements[call.txn] {
			steps = append(steps, step{st, call.params})
		}
	}
	timed := steps[:min(len(steps), p.cfg.replayStatements)]
	extra := steps[len(timed):min(len(steps), len(timed)+traceStatements)]

	h, err := p.newReplayer()
	if err != nil {
		return err
	}
	e, err := p.newReplayer()
	if err != nil {
		return err
	}
	plans := map[workload.Statement]*planner.Plan{}
	for _, qr := range p.rec.Queries {
		plans[qr.Statement.Statement] = qr.Plan
	}
	writes := map[workload.Statement][]*search.UpdateRecommendation{}
	for _, ur := range p.rec.Updates {
		writes[ur.Statement.Statement] = append(writes[ur.Statement.Statement], ur)
	}
	viaHarness := func(s step) (float64, error) { return h.sys.ExecStatement(s.st, s.params) }
	viaExecutor := func(s step) (float64, error) {
		var res *executor.Result
		var err error
		if plan, ok := plans[s.st]; ok {
			res, err = e.sys.Exec.ExecuteQuery(plan, s.params)
		} else {
			res, err = e.sys.Exec.ExecuteWrite(writes[s.st], s.params)
		}
		if err != nil {
			return 0, err
		}
		return res.SimMillis, nil
	}
	// The two replays take turns, a window of statements each, so that
	// both sides of every difference below were clocked within a tenth
	// of a second of each other, in the same mood of the host; the
	// medians over the windows are what is reported.
	var harnessUs, harnessSelfUs, executorSelfUs []float64
	runtime.GC()
	for lo := 0; lo < len(timed); lo += p.cfg.windowTxns {
		window := timed[lo:min(lo+p.cfg.windowTxns, len(timed))]
		n := float64(len(window))
		sp = led.begin("replay: harness.ExecStatement")
		harnessWall, err := h.run(window, viaHarness)
		sp.End()
		if err != nil {
			return err
		}
		backend0 := e.kv.getNanos + e.kv.putNanos
		sp = led.begin("replay: executor.ExecuteQuery/ExecuteWrite")
		executorWall, err := e.run(window, viaExecutor)
		sp.End()
		if err != nil {
			return err
		}
		backend := e.kv.getNanos + e.kv.putNanos - backend0
		harnessUs = append(harnessUs, float64(harnessWall.Nanoseconds())/1e3/n)
		harnessSelfUs = append(harnessSelfUs, float64((harnessWall-executorWall).Nanoseconds())/1e3/n)
		executorSelfUs = append(executorSelfUs, float64((executorWall-backend).Nanoseconds())/1e3/n)
	}
	// A short stretch more, span by span, for the trace file only: the
	// benchmark's spans around each statement and backend call, and the
	// program's own statement events on the simulated-clock lane.
	h.kv.tracer = led.tracer
	h.sys.EnableTrace(led.tracer, 1, p.cfg.workload)
	if _, err := h.run(extra, func(s step) (float64, error) {
		sp := led.begin("harness.ExecStatement " + workload.Label(s.st))
		defer sp.End()
		return viaHarness(s)
	}); err != nil {
		return err
	}

	counter := func(name string) float64 { return float64(base.obs.Counters[name]) }
	statementsPerTxn := counter("harness.statements") / txns

	var gaps [][]float64
	var allGaps, rates []float64
	wall := 0.0
	heapPeak := clocked.heapInuse
	for _, seg := range plain {
		gaps = append(gaps, seg.gaps)
		allGaps = append(allGaps, seg.gaps...)
		rates = append(rates, seg.perSecond())
		wall += seg.wall.Seconds()
		heapPeak = max(heapPeak, seg.heapInuse)
	}
	o.set("load.wall_p50_us", median(allGaps)/1e3)
	o.set("load.wall_per_s", txns*float64(len(plain))/wall)
	// Median against median: the typical window of the clocked segment
	// less what the harness replay's typical window spends per statement.
	var txnUs []float64
	for gaps := clocked.gaps; len(gaps) >= p.cfg.windowTxns; gaps = gaps[p.cfg.windowTxns:] {
		sum := 0.0
		for _, g := range gaps[:p.cfg.windowTxns] {
			sum += g
		}
		txnUs = append(txnUs, sum/1e3/float64(p.cfg.windowTxns))
	}
	o.set("load.self_us", median(txnUs)-median(harnessUs)*statementsPerTxn)
	o.set("harness.self_us", median(harnessSelfUs))
	o.set("harness.txn_p99_us", quantile(allGaps, 0.99)/1e3)
	o.set("harness.txn_p999_us", quantile(allGaps, 0.999)/1e3)
	o.set("harness.failovers", counter("harness.failovers"))
	o.set("harness.unavailable", counter("harness.unavailable"))
	o.set("executor.self_us", median(executorSelfUs))
	o.set("executor.statements_per_txn", statementsPerTxn)
	o.set("executor.retries", counter("exec.retries"))
	o.set("store.calls_per_txn", (counter("store.gets")+counter("store.puts")+counter("store.deletes"))/txns)
	o.set("store.records_per_get", div(counter("store.records_read"), counter("store.gets")))
	getUs := div(float64(c.kv.getNanos.Nanoseconds())/1e3, float64(c.kv.gets))
	putUs := div(float64(c.kv.putNanos.Nanoseconds())/1e3, float64(c.kv.puts))
	if p.quorum {
		o.set("coordinator.get_us", getUs)
		o.set("coordinator.put_us", putUs)
		o.set("coordinator.replica_reads_per_get", div(counter("coord.replica_reads"), counter("coord.reads")))
		o.set("coordinator.replica_writes_per_put", div(counter("coord.replica_writes"), counter("coord.writes")))
		o.set("coordinator.hints_queued", counter("coord.hints_queued"))
		o.set("coordinator.read_repairs", counter("coord.read_repairs"))
		sp = led.begin("queue.Admit, timed directly")
		o.set("queue.admit_ns", p.timeAdmit())
		sp.End()
		o.set("queue.admitted_per_txn", counter("queue.admitted")/txns)
		o.set("queue.delay_sim_ms_per_txn", base.res.QueueDelayMillis/txns)
		o.set("queue.max_utilization", base.res.MaxUtilization)
	} else {
		o.set("store.get_us", getUs)
		o.set("store.put_us", putUs)
	}
	o.set("sim.txn_mean_ms", base.res.MeanMillis)
	o.set("sim.txn_p99_ms", base.res.P99Millis)
	o.set("sim.txn_per_s", base.res.ThroughputPerSec)
	o.set("process.heap_peak_mb", float64(heapPeak)/(1<<20))
	o.set("process.gc_cpu_share", readGCCPU().shareSince(gc0))
	plainP50, _ := bestWindow(gaps, p.cfg.windowTxns)
	clockedP50, _ := bestWindow([][]float64{clocked.gaps}, p.cfg.windowTxns)
	o.set("process.trace_overhead_share", (clockedP50-plainP50)/plainP50)
	o.set("process.segment_spread", (quantile(rates, 1)-quantile(rates, 0))/median(rates))
	return led.writeTrace(p.cfg)
}

// timeAdmit clocks seeded NodeQueues.Admit calls on a five-node,
// one-server-per-node queue set and returns nanoseconds per call.
func (p *plane) timeAdmit() float64 {
	rng := rand.New(rand.NewSource(p.cfg.seed))
	n := p.cfg.admitCalls
	nodes := make([]int, n)
	service := make([]float64, n)
	for i := range nodes {
		nodes[i] = rng.Intn(5)
		service[i] = rng.ExpFloat64() * 0.5
	}
	q := backend.NewNodeQueues(5, 1)
	start := time.Now()
	for i := range nodes {
		// Arrivals 0.125 sim ms apart keep the nodes four fifths busy,
		// so admissions find a short queue to prune, as under load.
		q.SetNow(float64(i) * 0.125)
		if _, err := q.Admit(nodes[i], service[i]); err != nil {
			panic(err) // a one-server node cannot refuse
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
