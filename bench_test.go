package nose_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§VII). Each benchmark regenerates its figure's data at a
// CI-friendly scale and reports the headline quantities as custom
// metrics; cmd/nosebench runs the same experiments at full scale and
// prints the complete data tables. See EXPERIMENTS.md for the
// paper-vs-measured record.
//
//	go test -bench=. -benchmem
//	go test -bench=Fig11 -users-scale 20000   (via cmd/nosebench instead)

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"nose/internal/baselines"
	"nose/internal/bip"
	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/executor"
	"nose/internal/experiments"
	"nose/internal/harness"
	"nose/internal/hotel"
	"nose/internal/load"
	"nose/internal/migrate"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/workload"
)

// benchAdvisorOptions keeps benchmark advisor runs snappy while
// exercising the full pipeline.
func benchAdvisorOptions() search.Options {
	return search.Options{
		Planner:         planner.Config{MaxPlansPerQuery: 16},
		MaxSupportPlans: 4,
		BIP:             bip.Options{MaxNodes: 60, Gap: 0.01},
	}
}

// BenchmarkFig11Bidding regenerates paper Fig. 11: per-transaction
// response times of the RUBiS bidding workload on the NoSE,
// normalized, and expert schemas. The reported metrics are the
// mix-weighted average response times; who wins, and by what factor,
// is the reproduction target.
func BenchmarkFig11Bidding(b *testing.B) {
	cfg := experiments.Fig11Config{
		RUBiS:      rubis.Config{Users: 2_000, Seed: 1},
		Executions: 10,
		Advisor:    benchAdvisorOptions(),
	}
	var last *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.WeightedAvg["NoSE"], "nose-ms")
	b.ReportMetric(last.WeightedAvg["Normalized"], "normalized-ms")
	b.ReportMetric(last.WeightedAvg["Expert"], "expert-ms")
	b.ReportMetric(last.MaxSpeedupVsExpert, "max-speedup-vs-expert")
	b.ReportMetric(last.WeightedSpeedupVsExpert, "weighted-speedup-vs-expert")
	if b.N > 0 {
		b.Logf("\n%s", last.Format())
	}
}

// BenchmarkFig12Mixes regenerates paper Fig. 12: weighted average
// response time across the browsing, bidding, 10x and 100x write
// mixes, re-advising NoSE per mix. The expected shape: NoSE wins the
// read-leaning mixes and loses to the expert schema at 100x writes.
func BenchmarkFig12Mixes(b *testing.B) {
	cfg := experiments.Fig11Config{
		RUBiS:      rubis.Config{Users: 1_000, Seed: 1},
		Executions: 5,
		Advisor:    benchAdvisorOptions(),
	}
	var last *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.Millis["NoSE"], row.Mix+"-nose-ms")
		b.ReportMetric(row.Millis["Expert"], row.Mix+"-expert-ms")
	}
	b.Logf("\n%s", last.Format())
}

// BenchmarkFig13AdvisorRuntime regenerates paper Fig. 13: advisor
// runtime versus workload scale factor, broken down into cost
// calculation, BIP construction, and BIP solving. The expected shape:
// super-linear growth dominated by construction and solving.
func BenchmarkFig13AdvisorRuntime(b *testing.B) {
	cfg := experiments.Fig13Config{
		MaxFactor: 2,
		Seed:      5,
		Advisor:   benchAdvisorOptions(),
	}
	var last *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.Total.Seconds(), "factor"+itoa(row.Factor)+"-s")
	}
	b.Logf("\n%s", last.Format())
}

// BenchmarkAdvisorRUBiS measures one full advisor run on the RUBiS
// workload — the paper's §VII-B prose reports under ten seconds.
func BenchmarkAdvisorRUBiS(b *testing.B) {
	g := rubis.Graph(rubis.DefaultConfig())
	w, _, err := rubis.Workload(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Advise(w, benchAdvisorOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvisorRUBiSExact is the advise a daemon request runs: RUBiS
// at the daemon's defaults — the default plan bound, an exact search,
// both solver phases to completion. BenchmarkAdvisorRUBiS stops each
// phase at 60 nodes and a 1 % gap and so never meets the tie-break
// phase's tree, which is most of a daemon request's nodes; this one
// does, and reports the explored nodes and LP solves per advise beside
// the time.
func BenchmarkAdvisorRUBiSExact(b *testing.B) {
	w := rubisWorkload(b)
	reg := obs.NewRegistry()
	opt := search.Options{
		Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery},
		Obs:     reg,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Advise(w, opt); err != nil {
			b.Fatal(err)
		}
	}
	c := reg.Snapshot().Counters
	b.ReportMetric(float64(c["bip.nodes"])/float64(b.N), "bip.nodes/op")
	b.ReportMetric(float64(c["lp.solves"])/float64(b.N), "lp.solves/op")
}

// BenchmarkAdvisorHotel measures the advisor on the small hotel
// example (paper §II).
func BenchmarkAdvisorHotel(b *testing.B) {
	g := hotel.Graph()
	w := workload.New(g)
	w.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 0.8)
	w.Add(workload.MustParse(g, hotel.UpdateStatements[0]), 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Advise(w, benchAdvisorOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerationRUBiS isolates candidate enumeration (paper
// Algorithm 1) on the RUBiS workload.
func BenchmarkEnumerationRUBiS(b *testing.B) {
	g := rubis.Graph(rubis.DefaultConfig())
	w, _, err := rubis.Workload(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enumerator.EnumerateWorkload(w); err != nil {
			b.Fatal(err)
		}
	}
}

// rubisWorkload builds the standard RUBiS benchmark workload.
func rubisWorkload(b *testing.B) *workload.Workload {
	b.Helper()
	w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// workerCounts is the sweep used by the per-stage advisor benchmarks;
// on a single-core host the higher counts measure coordination overhead
// rather than speedup.
var workerCounts = []int{1, 2, 4}

// BenchmarkAdvisorEnumeration isolates candidate enumeration across
// worker counts.
func BenchmarkAdvisorEnumeration(b *testing.B) {
	w := rubisWorkload(b)
	for _, workers := range workerCounts {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := enumerator.EnumerateWorkloadCtx(context.Background(), w, enumerator.Features{}, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdvisorFormulation isolates plan-space generation and cost
// estimation (the newBuilder stage) across worker counts: enumeration
// runs once outside the timer, then each iteration replans the whole
// workload. search.BuildPlans is the benchmark-only export of that
// stage.
func BenchmarkAdvisorFormulation(b *testing.B) {
	w := rubisWorkload(b)
	enumRes, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range workerCounts {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			opt := benchAdvisorOptions()
			opt.Workers = workers
			for i := 0; i < b.N; i++ {
				if err := search.BuildPlans(w, enumRes, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanSpacesRandwork isolates plan-space generation on the
// benchmark's planner-heavy input (randwork factor 3, seed 42 — the
// advise-randwork workload of bench/): enumeration runs once outside
// the timer, each iteration replans every query, update and support
// query at one worker. Its allocation counts are the gate on chain
// generation staying free of per-candidate strings.
func BenchmarkPlanSpacesRandwork(b *testing.B) {
	w, err := randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	enumRes, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchAdvisorOptions()
	opt.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := search.BuildPlans(w, enumRes, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// planSpacesAllocCeiling bounds the allocations of one search.BuildPlans
// on randwork factor 3 seed 42 at one worker: 603,610 before the planner
// interned steps and memoised segments, about 140,000 since (go1.24).
// The headroom is for other toolchains' maps and slices, not for a
// string, map or closure per candidate family, which costs more than it.
const planSpacesAllocCeiling = 200_000

// TestPlanSpacesAllocCeiling is BenchmarkPlanSpacesRandwork's
// allocation count as a test, so that per-candidate garbage cannot creep
// back into plan-space generation unnoticed. CI runs it by name with
// -count=1.
func TestPlanSpacesAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("plans a 75-statement workload several times")
	}
	w, err := randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	enumRes, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	opt := benchAdvisorOptions()
	opt.Workers = 1
	allocs := testing.AllocsPerRun(3, func() {
		if err := search.BuildPlans(w, enumRes, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > planSpacesAllocCeiling {
		t.Errorf("search.BuildPlans allocates %.0f times on randwork f3 s42, ceiling %d", allocs, planSpacesAllocCeiling)
	}
	t.Logf("search.BuildPlans: %.0f allocations (ceiling %d)", allocs, planSpacesAllocCeiling)
}

// BenchmarkEnumerationRandwork isolates candidate enumeration on the
// same input (randwork factor 3, seed 42) at one worker: Algorithm 1
// asks for 3,253 query enumerations there over 485 distinct signatures,
// so its allocation counts are the gate on each distinct query being
// enumerated once.
func BenchmarkEnumerationRandwork(b *testing.B) {
	w, err := randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enumerator.EnumerateWorkload(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvisorSolve isolates the two BIP solve phases across worker
// counts: the problem is planned and formulated once outside the timer
// (search.Prepare), then each iteration re-runs the solves.
func BenchmarkAdvisorSolve(b *testing.B) {
	w := rubisWorkload(b)
	enumRes, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range workerCounts {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			opt := benchAdvisorOptions()
			opt.Workers = workers
			prepared, err := search.Prepare(w, enumRes, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prepared.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdvisorLargeRandwork stresses the solver on a synthetic
// workload several times larger than RUBiS (~150 statements at Factor
// 6): planning and formulation run once outside the timer, each
// iteration re-runs the two BIP solve phases.
func BenchmarkAdvisorLargeRandwork(b *testing.B) {
	w, err := randwork.Generate(randwork.Config{Factor: 6, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	enumRes, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchAdvisorOptions()
	opt.Workers = 1
	prepared, err := search.Prepare(w, enumRes, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prepared.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvisorWorkers runs the full advisor end to end across
// worker counts (the tentpole before/after comparison; see
// EXPERIMENTS.md).
func BenchmarkAdvisorWorkers(b *testing.B) {
	w := rubisWorkload(b)
	for _, workers := range workerCounts {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			opt := benchAdvisorOptions()
			opt.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := search.Advise(w, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRandomWorkloadGeneration isolates the Fig. 13 workload
// generator.
func BenchmarkRandomWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := randwork.Generate(randwork.Config{Factor: 5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// BenchmarkDualWriteOverhead measures what forwarding writes to the
// column families a live migration is building costs per transaction:
// the same RUBiS transaction mix executes against one system with no
// migration and one holding a paused live migration in its dual-write
// window. The reported sim-ms metrics are the simulated response-time
// averages; the wall-clock delta is the harness-side forwarding
// overhead the benchdiff gate watches.
func BenchmarkDualWriteOverhead(b *testing.B) {
	cfg := rubis.Config{Users: 500, Seed: 1}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	expertPool, err := baselines.ExpertRUBiS(ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	from, err := baselines.Recommend(w, expertPool, cost.Default(), planner.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	normPool, err := baselines.Normalized(w)
	if err != nil {
		b.Fatal(err)
	}
	to, err := baselines.Recommend(w, normPool, cost.Default(), planner.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, sys *harness.System) float64 {
		b.Helper()
		ps := rubis.NewParamSource(cfg, 9)
		sim := 0.0
		n := 0
		for i := 0; i < b.N; i++ {
			txn := txns[i%len(txns)]
			ms, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name))
			if err != nil {
				b.Fatal(err)
			}
			sim += ms
			n++
		}
		return sim / float64(n)
	}

	b.Run("baseline", func(b *testing.B) {
		sys, err := harness.NewSystem("baseline", ds, from, cost.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportMetric(run(b, sys), "sim-ms/txn")
	})
	b.Run("dualwrite", func(b *testing.B) {
		sys, err := harness.NewSystem("dualwrite", ds, from, cost.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		build, drop := migrate.Diff(from.Schema, to.Schema)
		// Nothing steps the migration, so it stays in its dual-write
		// window and every write transaction pays the forwarding cost.
		if _, err := sys.StartLiveMigration(ds, &search.PhaseRecommendation{Rec: to, Build: build, Drop: drop},
			migrate.LiveOptions{Params: migrate.DefaultCostParams()}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportMetric(run(b, sys), "sim-ms/txn")
	})
}

// BenchmarkLoadSteadyState measures one steady-state closed-loop load
// run: 16 clients driving the RUBiS bidding mix at QUORUM over
// single-server nodes — the load generator's event loop plus the
// per-node queue accounting, with the advisor run once outside the
// timer. The sim-side metrics record the measured operating point; the
// wall-clock ns/op is what the benchdiff gate watches.
func BenchmarkLoadSteadyState(b *testing.B) {
	cfg := rubis.Config{Users: 300, Seed: 1}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := search.Advise(w, benchAdvisorOptions())
	if err != nil {
		b.Fatal(err)
	}
	var work []load.Transaction
	for _, txn := range txns {
		work = append(work, load.Transaction{
			Name:       txn.Name,
			Statements: txn.Statements,
			Weight:     rubis.TransactionWeight(txn, rubis.MixBidding),
		})
	}
	b.ResetTimer()
	var last *load.Result
	for i := 0; i < b.N; i++ {
		sys, err := harness.NewReplicatedSystem("NoSE", ds, rec, cost.DefaultParams(),
			harness.ReplicationConfig{Read: executor.Quorum, Write: executor.Quorum})
		if err != nil {
			b.Fatal(err)
		}
		q := sys.EnableQueues(1)
		ps := rubis.NewParamSource(cfg, 4242)
		last, err = load.Run(sys, work, ps.Params, q, load.Options{
			Clients: 16, ThinkMillis: 10, HorizonMillis: 500, WarmupMillis: 50, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.ThroughputPerSec, "tx-per-s")
	b.ReportMetric(last.P99Millis, "p99-ms")
	b.ReportMetric(last.MaxUtilization, "max-util")
}

// BenchmarkExecStatementRUBiS measures the second end-to-end path alone:
// one op is one RUBiS transaction of the bidding mix — parameters drawn,
// then every statement through harness.ExecTransaction on a single
// store — so allocs/op and B/op are the data plane's per-transaction
// allocation, the number bench/'s op_alloc_kb reports for
// txn-rubis-single.
func BenchmarkExecStatementRUBiS(b *testing.B) {
	cfg := rubis.Config{Users: 300, Seed: 1}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := search.Advise(w, benchAdvisorOptions())
	if err != nil {
		b.Fatal(err)
	}
	sys, err := harness.NewSystem("NoSE", ds, rec, cost.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	// A fixed weighted schedule, so every run executes the same mix.
	var cum []float64
	total := 0.0
	for _, txn := range txns {
		total += rubis.TransactionWeight(txn, rubis.MixBidding)
		cum = append(cum, total)
	}
	rng := rand.New(rand.NewSource(7))
	schedule := make([]*rubis.Transaction, 4096)
	for i := range schedule {
		schedule[i] = txns[sort.SearchFloat64s(cum, rng.Float64()*total)]
	}
	ps := rubis.NewParamSource(cfg, 4242)
	b.ReportAllocs()
	b.ResetTimer()
	sim := 0.0
	for i := 0; i < b.N; i++ {
		txn := schedule[i%len(schedule)]
		ms, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name))
		if err != nil {
			b.Fatal(err)
		}
		sim += ms
	}
	b.ReportMetric(sim/float64(b.N), "sim-ms/txn")
}

// BenchmarkBudgetSweep is the storage-budget ablation (paper §III-D,
// §IX): the space constraint trades schema size against workload cost.
func BenchmarkBudgetSweep(b *testing.B) {
	cfg := experiments.Fig11Config{
		RUBiS:   rubis.Config{Users: 2_000, Seed: 1},
		Advisor: benchAdvisorOptions(),
	}
	var last *experiments.BudgetResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunBudgetSweep(cfg, []float64{1, 0.5, 0.25})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.CostRatio, "cost-ratio-at-"+itoa(int(row.Fraction*100)))
	}
	b.Logf("\n%s", last.Format())
}

// BenchmarkAblation quantifies the advisor's design choices (Combine,
// orientation reversal, predicate relaxation) by disabling each and
// measuring workload cost degradation on the RUBiS bidding mix.
func BenchmarkAblation(b *testing.B) {
	cfg := experiments.Fig11Config{
		RUBiS:   rubis.Config{Users: 2_000, Seed: 1},
		Advisor: benchAdvisorOptions(),
	}
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.CostRatio > 0 {
			b.ReportMetric(row.CostRatio, row.Variant+"-cost-ratio")
		}
	}
	b.Logf("\n%s", last.Format())
}
