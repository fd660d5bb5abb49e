package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"nose/internal/bip"
	"nose/internal/nosedsl"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/service"
	"nose/internal/service/api"
	"nose/internal/workload"
)

// randworkStructureSeed fixes the random entity graph and statements of
// advise-randwork. Advisor time varies threefold across randwork
// graphs, so the graph is one fixed instance (2 774 candidates, an
// 802-row LP) and -seed only jitters its statement weights.
const randworkStructureSeed = 42

// weightJitter is the half-width of the per-statement weight jitter
// that makes every seeded input a different BIP over the same graph.
const weightJitter = 0.05

// advisorInput is one request the advisor workloads send, with the
// reference it must answer with.
type advisorInput struct {
	dsl string
	// ref is the canonical result of the in-memory workload advised by
	// the library at one worker; wire is the same result before
	// encoding. Comparing a response with ref checks the DSL renderer,
	// the parser, worker-count invariance and the transport at once.
	ref  []byte
	wire *api.AdviseResult
}

// advisorPath is one way of getting from DSL text to result bytes.
type advisorPath struct {
	inputs []advisorInput
	// maxNodes is the branch-and-bound budget per solver phase.
	maxNodes int
	// request sends one input down the path; with a non-nil ledger it
	// records spans around the calls it makes. inspect, called after a
	// traced request and off its clock, hands the ledger the counters
	// and spans the program itself emitted for that request.
	request func(in *advisorInput, led *ledger) ([]byte, error)
	inspect func(in *advisorInput, led *ledger) error
	close   func()
}

// jitteredCopy returns the workload with every statement's active-mix
// weight scaled by a seeded factor in [1-weightJitter, 1+weightJitter].
func jitteredCopy(w *workload.Workload, rng *rand.Rand) *workload.Workload {
	out := workload.New(w.Graph)
	for _, ws := range w.Statements {
		out.Add(ws.Statement, w.Weight(ws)*(1+weightJitter*(2*rng.Float64()-1)))
	}
	return out
}

// newInputs renders n jittered copies of the workload and advises each
// in memory at one worker for its reference, one lap per input.
func newInputs(w *workload.Workload, n int, seed int64, opts search.Options, l *laps) ([]advisorInput, error) {
	rng := rand.New(rand.NewSource(seed))
	opts.Workers = 1
	inputs := make([]advisorInput, n)
	for i := range inputs {
		v := jitteredCopy(w, rng)
		rec, err := search.Advise(v, opts)
		if err != nil {
			return nil, fmt.Errorf("reference advise %d: %w", i, err)
		}
		wire := api.Advise(v, rec)
		ref, err := api.Encode(wire)
		if err != nil {
			return nil, err
		}
		inputs[i] = advisorInput{dsl: renderDSL(v), ref: ref, wire: wire}
		l.lap()
	}
	return inputs, nil
}

// setupDaemon builds the daemon-rubis path: the RUBiS bidding workload
// in cfg.variants jittered renderings, and an in-process nosed wired as
// cmd/nosed wires it, on a real loopback listener.
func setupDaemon(cfg config, l *laps) (*advisorPath, error) {
	w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		return nil, err
	}
	// The daemon's defaults for every knob (service/run.go).
	inputs, err := newInputs(w, cfg.variants, cfg.seed, search.Options{
		Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery},
	}, l)
	if err != nil {
		return nil, err
	}

	manager := service.NewManager(service.Config{MaxSessions: service.DefaultMaxSessions})
	srv := &http.Server{Handler: service.NewServer(manager, obs.NewRegistry())}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // always ErrServerClosed, after close() below
	}()
	transport := &http.Transport{}
	d := &daemonClient{base: "http://" + ln.Addr().String(), http: &http.Client{Transport: transport}}
	l.lap()
	return &advisorPath{
		inputs:   inputs,
		maxNodes: bip.DefaultMaxNodes,
		request:  d.request,
		inspect:  d.inspect,
		close: func() {
			transport.CloseIdleConnections()
			_ = srv.Shutdown(context.Background()) // no request is in flight
			manager.Shutdown(context.Background())
			<-served
		},
	}, nil
}

// daemonClient is the benchmark's single closed-loop HTTP client.
type daemonClient struct {
	base string
	http *http.Client
	// lastJob is the job the latest request submitted.
	lastJob string
}

// do sends one HTTP request and returns the status and the whole body.
func (d *daemonClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// request submits the DSL with wait=1 and fetches the result bytes.
func (d *daemonClient) request(in *advisorInput, led *ledger) ([]byte, error) {
	post := led.begin("POST /v1/jobs")
	code, body, err := d.do("POST", "/v1/jobs?wait=1", []byte(in.dsl))
	post.End()
	if err != nil {
		return nil, err
	}
	var st service.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("POST /v1/jobs: status %d: %w", code, err)
	}
	if code != http.StatusOK || st.State != service.Done {
		return nil, fmt.Errorf("POST /v1/jobs: status %d, job %s is %s: %s", code, st.ID, st.State, st.Error)
	}
	d.lastJob = st.ID
	get := led.begin("GET /v1/jobs/{id}/result")
	code, data, err := d.do("GET", "/v1/jobs/"+st.ID+"/result", nil)
	get.End()
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs/%s/result: status %d", st.ID, code)
	}
	return data, nil
}

// inspect reads the counters and stage spans the daemon already emits
// for the latest job, and times a direct call into the two layers the
// daemon exposes no span for, with that request's own DSL and result.
func (d *daemonClient) inspect(in *advisorInput, led *ledger) error {
	code, body, err := d.do("GET", "/v1/jobs/"+d.lastJob+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /v1/jobs/%s/metrics: status %d: %v", d.lastJob, code, err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("job metrics: %w", err)
	}
	led.addCounters(&snap)
	code, body, err = d.do("GET", "/v1/jobs/"+d.lastJob+"/events", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /v1/jobs/%s/events: status %d: %v", d.lastJob, code, err)
	}
	var spans []obs.TraceEvent
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("job events: %w", err)
		}
		if ev.Span != nil {
			spans = append(spans, *ev.Span)
		}
	}
	led.adoptJobSpans("POST /v1/jobs", spans)

	sp := led.begin("nosedsl.Parse")
	_, w, err := nosedsl.Parse(in.dsl)
	sp.End()
	if err != nil {
		return err
	}
	led.statements = len(w.Statements)
	sp = led.begin("api.Encode")
	_, err = api.Encode(in.wire)
	sp.End()
	return err
}

// setupLibrary builds the advise-randwork path: the same calls
// service/run.go makes for an advise job, minus HTTP, with the node
// budget nosed has no knob for.
func setupLibrary(cfg config, l *laps) (*advisorPath, error) {
	w, err := randwork.Generate(randwork.Config{Factor: cfg.randFactor, Seed: randworkStructureSeed})
	if err != nil {
		return nil, err
	}
	l.lap()
	// benchAdvisorOptions() of the root bench_test.go.
	opts := search.Options{
		Planner:         planner.Config{MaxPlansPerQuery: 16},
		MaxSupportPlans: 4,
		BIP:             bip.Options{MaxNodes: 60, Gap: 0.01},
	}
	inputs, err := newInputs(w, 1, cfg.seed, opts, l)
	if err != nil {
		return nil, err
	}
	var reg *obs.Registry // the latest traced request's
	var statements int
	request := func(in *advisorInput, led *ledger) ([]byte, error) {
		o := opts
		if led != nil {
			reg = obs.NewRegistry()
			o.Obs, o.Trace = reg, led.tracer
		}
		sp := led.begin("nosedsl.Parse")
		_, w, err := nosedsl.Parse(in.dsl)
		sp.End()
		if err != nil {
			return nil, err
		}
		statements = len(w.Statements)
		sp = led.begin("search.Advise")
		rec, err := search.Advise(w, o)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = led.begin("api.Encode")
		data, err := api.Encode(api.Advise(w, rec))
		sp.End()
		return data, err
	}
	inspect := func(_ *advisorInput, led *ledger) error {
		led.addCounters(reg.Snapshot())
		led.statements = statements
		return nil
	}
	return &advisorPath{
		inputs: inputs, maxNodes: opts.BIP.MaxNodes,
		request: request, inspect: inspect, close: func() {},
	}, nil
}

// runAdvisor runs one pass of an advisor workload.
func runAdvisor(cfg config, o *outcome) error {
	setup := setupLibrary
	if cfg.workload == "daemon-rubis" {
		setup = setupDaemon
	}
	var path *advisorPath
	var setups []*laps
	for i := 0; i < cfg.setups; i++ {
		if path != nil {
			path.close()
		}
		l := startLaps()
		p, err := setup(cfg, l)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, l)
		path = p
	}
	defer path.close()

	if !cfg.trace {
		loop := advisorLoop(path, nil, cfg.seconds, o)
		o.set("setup_s", bestSetup(setups))
		o.set("op_p50_ms", loop.bestP50())
		o.set("ops_per_s", loop.bestPerSecond())
		o.set("op_alloc_kb", float64(loop.allocBytes)/1024/float64(loop.requests))
		o.set("advise_cost", loop.meanCost)
		return nil
	}

	// Traced pass: half the budget untraced for the overhead baseline,
	// half traced for the ledger.
	plain := advisorLoop(path, nil, cfg.seconds/2, o)
	led := newLedger()
	gc0 := readGCCPU()
	traced := advisorLoop(path, led, cfg.seconds/2, o)
	gcShare := readGCCPU().shareSince(gc0)
	n := float64(traced.requests)
	led.collectSpans()

	per := func(names ...string) float64 {
		sum := 0.0
		for _, name := range names {
			sum += led.spanMicros[name]
		}
		return sum / 1000 / n
	}
	count := func(name string) float64 { return float64(led.counters[name]) / n }
	if cfg.workload == "daemon-rubis" {
		o.set("service.http_ms", per("POST /v1/jobs", "GET /v1/jobs/{id}/result")-per("advise"))
		o.set("service.request_bytes", float64(traced.requestBytes)/n)
		o.set("service.result_bytes", float64(traced.resultBytes)/n)
	}
	o.set("nosedsl.parse_ms", per("nosedsl.Parse"))
	o.set("nosedsl.statements", float64(led.statements))
	o.set("enumerator.enumerate_ms", per("enumerate"))
	o.set("enumerator.candidates", count("search.candidates"))
	o.set("planner.plan_spaces_ms", per("plan-spaces"))
	o.set("planner.plan_variables", count("search.plan_variables"))
	o.set("cost.cache_hit_share", div(float64(led.counters["cost.cache.hits"]),
		float64(led.counters["cost.cache.hits"]+led.counters["cost.cache.misses"])))
	o.set("cost.cache_entries", count("cost.cache.entries"))
	o.set("search.formulate_ms", per("formulate", "formulate phase 2"))
	o.set("search.constraints", count("search.constraints"))
	o.set("search.extract_ms", per("extract"))
	o.set("bip.solve_ms", per("solve phase 1", "solve phase 2"))
	o.set("bip.nodes", count("bip.nodes"))
	o.set("bip.node_budget_share", count("bip.nodes")/float64(2*path.maxNodes))
	o.set("bip.pruned_bound", count("bip.pruned_bound"))
	o.set("lp.solves", count("lp.solves"))
	o.set("lp.pivots", count("lp.pivots"))
	o.set("lp.refactors", count("lp.refactors"))
	o.set("lp.warm_start_share", div(float64(led.counters["lp.warm_starts"]), float64(led.counters["lp.solves"])))
	o.set("lp.us_per_pivot", div(led.spanMicros["solve phase 1"]+led.spanMicros["solve phase 2"], float64(led.counters["lp.pivots"])))
	o.set("api.encode_ms", per("api.Encode"))
	all := traced.all()
	o.set("advise.wall_p50_ms", median(all))
	o.set("advise.wall_p90_ms", quantile(all, 0.90))
	o.set("advise.wall_per_s", n/traced.wall.Seconds())
	o.set("process.heap_peak_mb", float64(max(plain.heapPeak, traced.heapPeak))/(1<<20))
	o.set("process.gc_cpu_share", gcShare)
	o.set("process.trace_overhead_share", (traced.bestP50()-plain.bestP50())/plain.bestP50())
	return led.writeTrace(cfg)
}

// loopStats is what one timed advisor loop measured.
type loopStats struct {
	// latencies holds, per input, the milliseconds of each repetition.
	latencies                 [][]float64
	requests                  int
	wall                      time.Duration
	allocBytes                uint64
	heapPeak                  uint64
	meanCost                  float64
	requestBytes, resultBytes int64
}

// fastest returns each input's fastest repetition: what that request
// takes when the host leaves it alone.
func (st *loopStats) fastest() []float64 {
	best := make([]float64, len(st.latencies))
	for i, reps := range st.latencies {
		best[i] = least(reps)
	}
	return best
}

// bestP50 is the median over the inputs of their fastest repetitions.
func (st *loopStats) bestP50() float64 { return median(st.fastest()) }

// bestPerSecond is the request rate of one cycle over the inputs with
// every input at its fastest repetition.
func (st *loopStats) bestPerSecond() float64 {
	sum := 0.0
	for _, ms := range st.fastest() {
		sum += ms
	}
	return 1000 * float64(len(st.latencies)) / sum
}

// all returns every repetition's latency.
func (st *loopStats) all() []float64 {
	var out []float64
	for _, reps := range st.latencies {
		out = append(out, reps...)
	}
	return out
}

// advisorLoop sends whole cycles over the path's inputs, one request at
// a time, until the budget is spent, and verifies every response
// against its reference. Costs are decoded from the first cycle's
// responses after the clock stops.
func advisorLoop(path *advisorPath, led *ledger, seconds float64, o *outcome) *loopStats {
	st := &loopStats{latencies: make([][]float64, len(path.inputs))}
	first := make([][]byte, len(path.inputs))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start).Seconds() < seconds; cycle++ {
		for i := range path.inputs {
			in := &path.inputs[i]
			sp := led.begin("request")
			t0 := time.Now()
			data, err := path.request(in, led)
			st.latencies[i] = append(st.latencies[i], float64(time.Since(t0).Nanoseconds())/1e6)
			sp.End()
			st.requests++
			o.attempted++
			switch {
			case err != nil:
				o.fail("request %d: %v", i, err)
			case !bytes.Equal(data, in.ref):
				o.fail("request %d: result differs from the one-worker library reference", i)
			}
			if cycle == 0 {
				first[i] = data
			}
			st.requestBytes += int64(len(in.dsl))
			st.resultBytes += int64(len(data))
			if led != nil && err == nil {
				if err := path.inspect(in, led); err != nil {
					o.fail("request %d: reading the program's own trace: %v", i, err)
				}
				// HeapInuse sampling stops the world; traced pass only.
				runtime.ReadMemStats(&ms)
				st.heapPeak = max(st.heapPeak, ms.HeapInuse)
			}
		}
	}
	st.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	st.allocBytes = ms.TotalAlloc - alloc0
	st.heapPeak = max(st.heapPeak, ms.HeapInuse)
	for i, data := range first {
		var res api.AdviseResult
		if err := json.Unmarshal(data, &res); err != nil {
			o.fail("request %d: result is not an advise document: %v", i, err)
		}
		st.meanCost += res.Cost / float64(len(first))
	}
	return st
}
