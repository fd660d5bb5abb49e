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
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"nose/internal/backend"
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
// does, and reports the explored nodes, LP solves and simplex pivots per
// advise beside the time.
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
	b.ReportMetric(float64(c["lp.pivots"])/float64(b.N), "lp.pivots/op")
}

// Pivot ceilings of one advise of RUBiS at the daemon's defaults: 742
// pivots, 280 of them in the cold root's phase 1, when that root started
// from the all-artificial basis; 421 and 50 from the slack crash basis;
// 207 and 50 once branch and bound fixed the columns the root's reduced
// costs price out (the pivot ceiling is 1.3 × 207). Both counts are pure
// functions of the program, the same at every worker count, so the
// headroom is for deliberate formulation changes, not for noise. Full
// pricing passes are capped at two per solve plus one per
// refactorization (a solve prices when it loads its basis and
// once to confirm optimality; a cold solve prices each phase's objective
// and confirms only phase 2, and its basis load is a refactorization),
// so pricing every pivot again would fail by name.
const (
	rubisPivotCeiling       = 270
	rubisPhase1PivotCeiling = 80
)

// TestAdvisorRUBiSPivotCeiling is BenchmarkAdvisorRUBiSExact's LP work
// as a test, so that a start or pricing change that sends the cold root
// back into degenerate feasibility pivots, or that prices every pivot
// from scratch again, fails by name.
func TestAdvisorRUBiSPivotCeiling(t *testing.T) {
	w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := search.Advise(w, search.Options{
		Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery},
		Obs:     reg,
	}); err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	pivots, phase1 := c["lp.pivots"], c["lp.phase1_pivots"]
	if pivots > rubisPivotCeiling {
		t.Errorf("RUBiS advise took %d pivots, ceiling %d", pivots, rubisPivotCeiling)
	}
	if phase1 > rubisPhase1PivotCeiling {
		t.Errorf("RUBiS advise took %d phase-1 pivots in cold solves, ceiling %d", phase1, rubisPhase1PivotCeiling)
	}
	prices, priceCeiling := c["lp.prices"], 2*c["lp.solves"]+c["lp.refactors"]
	if prices == 0 || prices > priceCeiling {
		t.Errorf("RUBiS advise ran %d full pricing passes, ceiling %d (2·lp.solves + lp.refactors)", prices, priceCeiling)
	}
	t.Logf("RUBiS advise: %d pivots (ceiling %d), %d in cold phase 1 (ceiling %d), %d full prices (ceiling %d)",
		pivots, rubisPivotCeiling, phase1, rubisPhase1PivotCeiling, prices, priceCeiling)
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

// planSpacesAllocCeiling and planSpacesByteCeiling bound the
// allocations and the bytes of one search.BuildPlans on randwork factor
// 3 seed 42 at one worker. The count was 603,610 before the planner
// interned steps and memoised segments, about 140,000 after, about
// 105,000 once its sub-queries and keys were built in reused storage,
// and is 78,747 since chains keeps a bounded beam and lookup variants
// split predicates in scratch (go1.24); the bytes went from 11.5 MB to
// 6.32 MB with that change. They are 77,278 and 5.50 MB since the chain
// lists chains memoises are carved from blocks the generator's scratch
// keeps, instead of one array per sub-query. Both ceilings are 1.3 times
// the measured value: headroom for other toolchains' maps and slices,
// not for a string, map or closure per candidate family, or an array as
// large as the candidates a chains call joins.
const (
	planSpacesAllocCeiling = 100_500
	planSpacesByteCeiling  = 7_150_000
)

// TestPlanSpacesAllocCeiling is BenchmarkPlanSpacesRandwork's
// allocation count and bytes as a test, so that per-candidate strings
// or maps, or a candidate array as large as the joins, cannot creep
// back into plan-space generation unnoticed.
func TestPlanSpacesAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("plans a 75-statement workload several times")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
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
	allocs, bytes := allocsPerRun(3, func() {
		if err := search.BuildPlans(w, enumRes, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > planSpacesAllocCeiling {
		t.Errorf("search.BuildPlans allocates %d times on randwork f3 s42, ceiling %d", allocs, planSpacesAllocCeiling)
	}
	if bytes > planSpacesByteCeiling {
		t.Errorf("search.BuildPlans allocates %d B on randwork f3 s42, ceiling %d", bytes, planSpacesByteCeiling)
	}
	t.Logf("search.BuildPlans: %d allocations (ceiling %d), %d B (ceiling %d)",
		allocs, planSpacesAllocCeiling, bytes, planSpacesByteCeiling)
}

// solveAllocCeiling and solveByteCeiling bound the allocations and the
// bytes of one search.Prepared.Solve — both branch-and-bound phases and
// phase 2's derivation from phase 1's program — on RUBiS at the daemon's
// defaults and one worker. They were 2,755 and 678,457 B while each solve
// grew its own LP solvers, cloned the program and allocated every
// relaxation's point, and were 1,923 and 234,105 B (go1.24) with pooled
// solvers, one shared program and points in solver storage; 1,915 and
// 213,241 B with branch and bound's own per-call buffers pooled beside
// the solvers (the reduced-cost fixes are one shared list, never a copy
// per node); and they are 200 and 104,513 B with phase 2's
// program derived from phase 1's in a few arrays instead of formulated
// again through maps and a slice per column; they are 187 and 80,785 B
// with a branching node's basis snapshot stored as its changes against
// the snapshot its solve was loaded from. Both ceilings are 1.3 times the
// measured value: headroom for other toolchains, not for any of those
// coming back.
const (
	solveAllocCeiling = 243
	solveByteCeiling  = 105_100
)

// TestSolveAllocCeiling counts what one Prepared.Solve allocates, with
// the collector off: a solve that grows its own solvers again, copies
// the program per worker, allocates a point per relaxation, copies every
// status of a branching node's basis or formulates phase 2 again fails
// it. TestSolveAllocAfterCollection covers the collector.
func TestSolveAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	enumRes, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := search.Prepare(w, enumRes, search.Options{
		Workers: 1,
		Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs, bytes := allocsPerRun(5, func() {
		if err := prepared.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > solveAllocCeiling {
		t.Errorf("Prepared.Solve allocates %d times on RUBiS, ceiling %d", allocs, solveAllocCeiling)
	}
	if bytes > solveByteCeiling {
		t.Errorf("Prepared.Solve allocates %d B on RUBiS, ceiling %d", bytes, solveByteCeiling)
	}
	t.Logf("Prepared.Solve: %d allocations (ceiling %d), %d B (ceiling %d)",
		allocs, solveAllocCeiling, bytes, solveByteCeiling)
}

// TestSolveAllocAfterCollection counts one Prepared.Solve on randwork
// factor 3 seed 42 at the benchmark's advisor options and two workers,
// run right after two collections, against the same solve with the
// collector off: at most 1.3 times as many bytes. An advise of randwork
// allocates enough for the collector to run several times, so whatever
// keeps branch and bound's solvers and buffers between calls must
// survive a collection, or every solve grows them again: 2,775,608 B
// against 1,154,040 B while they sat in a sync.Pool (go1.24); 385,912 B
// either way since they are kept in free lists.
func TestSolveAllocAfterCollection(t *testing.T) {
	if testing.Short() {
		t.Skip("plans a 75-statement workload")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
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
	opt.Workers = 2
	prepared, err := search.Prepare(w, enumRes, opt)
	if err != nil {
		t.Fatal(err)
	}
	solve := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := prepared.Solve(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	solve() // grow what the solves keep
	gcOff := func() uint64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return solve()
	}()
	runtime.GC()
	runtime.GC()
	collected := solve()
	if limit := gcOff * 13 / 10; collected > limit {
		t.Errorf("Prepared.Solve after two collections allocates %d B on randwork f3 s42, more than 1.3 times the %d B it allocates with the collector off", collected, gcOff)
	}
	t.Logf("Prepared.Solve on randwork f3 s42: %d B after two collections, %d B with the collector off", collected, gcOff)
}

// prepareAllocCeiling and prepareByteCeiling bound the allocations and
// the bytes of one search.Prepare — planning every statement, formulating
// phase 1's program and its greedy start — on RUBiS at the daemon's
// defaults and one worker. They were 7,752 and 614,564 B while the
// formulation kept its column maps in four maps, a link-row map per plan
// space and an entry slice per plan column that AddCol copied, and
// Plan.Indexes built a slice on every call; 5,761 and 542,656 B with
// the program counted by a mirror of the formulation, then written in
// place into arrays allocated once, and each plan's families computed
// when the planner builds it; and they are 5,768 and 549,396 B with the
// formulation run twice instead, into a counter and then into the
// program reserved from its count. Both ceilings are 1.3 times the
// measured value.
//
// formulateAllocCeiling and formulateByteCeiling bound what Prepare
// allocates beyond search.BuildPlans on the same input: the formulation
// and the greedy start alone, which the whole-Prepare ceilings, planning
// being most of Prepare, cannot see. That difference was 35 allocations
// and 42,628 B while a mirror of the formulation counted the program,
// and is 41 and 49,132 B with the formulation counting itself (the
// counter's per-column slice grows by append); both ceilings are 1.3
// times the latter. A formulation that grows every column's entries by
// append fails it: with the count run but the program not reserved from
// it, the difference is 479 allocations and 72,796 B, while the whole
// Prepare, at 6,206 and 573,060 B, passes its own ceilings.
const (
	prepareAllocCeiling   = 7_500
	prepareByteCeiling    = 705_500
	formulateAllocCeiling = 53
	formulateByteCeiling  = 63_900
)

// TestPrepareAllocCeiling counts what one search.Prepare allocates on
// RUBiS over an enumeration done beforehand, and what it allocates beyond
// one search.BuildPlans with the same options: a formulation that builds
// a map or a slice per column, grows its columns by append instead of
// writing them into the storage its count reserved, or a planner that
// allocates per Plan.Indexes call, fails it.
func TestPrepareAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	enumRes, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	opt := search.Options{
		Workers: 1,
		Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery},
	}
	allocs, bytes := allocsPerRun(5, func() {
		if _, err := search.Prepare(w, enumRes, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > prepareAllocCeiling {
		t.Errorf("search.Prepare allocates %d times on RUBiS, ceiling %d", allocs, prepareAllocCeiling)
	}
	if bytes > prepareByteCeiling {
		t.Errorf("search.Prepare allocates %d B on RUBiS, ceiling %d", bytes, prepareByteCeiling)
	}
	t.Logf("search.Prepare: %d allocations (ceiling %d), %d B (ceiling %d)",
		allocs, prepareAllocCeiling, bytes, prepareByteCeiling)

	planAllocs, planBytes := allocsPerRun(5, func() {
		if err := search.BuildPlans(w, enumRes, opt); err != nil {
			t.Fatal(err)
		}
	})
	fAllocs, fBytes := int64(allocs)-int64(planAllocs), int64(bytes)-int64(planBytes)
	if fAllocs > formulateAllocCeiling {
		t.Errorf("search.Prepare allocates %d times beyond search.BuildPlans on RUBiS, ceiling %d", fAllocs, formulateAllocCeiling)
	}
	if fBytes > formulateByteCeiling {
		t.Errorf("search.Prepare allocates %d B beyond search.BuildPlans on RUBiS, ceiling %d", fBytes, formulateByteCeiling)
	}
	t.Logf("search.Prepare beyond search.BuildPlans: %d allocations (ceiling %d), %d B (ceiling %d)",
		fAllocs, formulateAllocCeiling, fBytes, formulateByteCeiling)
}

// allocsPerRun is testing.AllocsPerRun that also returns the bytes: the
// mean number of allocations and of bytes allocated by one call of f,
// after a warm-up call, with GOMAXPROCS at 1.
func allocsPerRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
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
	from, err := search.AdvisePinned(w, expertPool, search.Options{})
	if err != nil {
		b.Fatal(err)
	}
	normPool, err := baselines.Normalized(w)
	if err != nil {
		b.Fatal(err)
	}
	to, err := search.AdvisePinned(w, normPool, search.Options{})
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
			migrate.LiveOptions{}); err != nil {
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

// BenchmarkDatasetMaterialize times the dataset's materializer, the
// data plane's set-up: one op installs the NoSE RUBiS schema (2,000
// users) into a fresh store and runs executor.Oracle for every query
// under one binding, so every family's path and every query's path is
// walked once. An op installs 18,420 records in 54,442 allocations and
// 4.73 MB (go1.24); a *PutResult per record that Install dropped made
// it 72,862 and 4.88 MB.
func BenchmarkDatasetMaterialize(b *testing.B) {
	cfg := rubis.Config{Users: 2_000, Seed: 1}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, _, err := rubis.Workload(ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := search.Advise(w, benchAdvisorOptions())
	if err != nil {
		b.Fatal(err)
	}
	params := rubis.NewParamSource(cfg, 4242).Params("")
	b.ResetTimer()
	records, rows := 0, 0
	for i := 0; i < b.N; i++ {
		store := backend.NewStore(cost.DefaultParams())
		records, rows = 0, 0
		for _, x := range rec.Schema.Indexes() {
			if err := ds.Install(store, x); err != nil {
				b.Fatal(err)
			}
			st, err := store.CFStats(x.Name)
			if err != nil {
				b.Fatal(err)
			}
			records += st.Records
		}
		for _, ws := range w.Statements {
			if q, ok := ws.Statement.(*workload.Query); ok {
				out, err := executor.Oracle(ds, q, params)
				if err != nil {
					b.Fatal(err)
				}
				rows += len(out)
			}
		}
	}
	b.ReportMetric(float64(records), "records")
	b.ReportMetric(float64(rows), "oracle-rows")
}

// biddingSchedule is the second end-to-end path's fixed input: a
// single-store system on RUBiS at 300 users under the advisor's bench
// options, 4,096 transactions drawn from the bidding mix by a seeded
// weighted schedule, and the parameter source that binds them.
func biddingSchedule(tb testing.TB) (*harness.System, []*rubis.Transaction, *rubis.ParamSource) {
	return rubisSchedule(tb, rubis.MixBidding, nil)
}

// rubisSchedule is biddingSchedule for any mix, on a single store when
// repl is nil and on a replicated cluster otherwise.
func rubisSchedule(tb testing.TB, mix string, repl *harness.ReplicationConfig) (*harness.System, []*rubis.Transaction, *rubis.ParamSource) {
	tb.Helper()
	cfg := rubis.Config{Users: 300, Seed: 1}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := search.Advise(w, benchAdvisorOptions())
	if err != nil {
		tb.Fatal(err)
	}
	var sys *harness.System
	if repl == nil {
		sys, err = harness.NewSystem("NoSE", ds, rec, cost.DefaultParams())
	} else {
		sys, err = harness.NewReplicatedSystem("NoSE", ds, rec, cost.DefaultParams(), *repl)
	}
	if err != nil {
		tb.Fatal(err)
	}
	var cum []float64
	total := 0.0
	for _, txn := range txns {
		total += rubis.TransactionWeight(txn, mix)
		cum = append(cum, total)
	}
	rng := rand.New(rand.NewSource(7))
	schedule := make([]*rubis.Transaction, 4096)
	for i := range schedule {
		schedule[i] = txns[sort.SearchFloat64s(cum, rng.Float64()*total)]
	}
	return sys, schedule, rubis.NewParamSource(cfg, 4242)
}

// BenchmarkExecStatementRUBiS measures the second end-to-end path alone:
// one op is one RUBiS transaction of the bidding mix — parameters drawn,
// then every statement through harness.ExecTransaction on a single
// store — so allocs/op and B/op are the data plane's per-transaction
// allocation, the number bench/'s op_alloc_kb reports for
// txn-rubis-single.
func BenchmarkExecStatementRUBiS(b *testing.B) {
	sys, schedule, ps := biddingSchedule(b)
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

// execTransactionAllocCeiling and execTransactionByteCeiling bound the
// mean allocations and bytes of one harness.ExecTransaction over the
// bidding schedule, parameters drawn beforehand. A transaction took 12.51
// allocations and 1,034 B while every get copied its records and a
// partition key and the harness projected rows it dropped, and took
// 3.54 and 157 B (go1.24) with gets reading into the executor's buffers
// and the harness running plans without rows. With RunQuery returning
// its Result by value instead of allocating one per query, it
// takes 2.35 and 100 B. Both ceilings are 1.3 times the measured value.
const (
	execTransactionAllocCeiling = 3.1
	execTransactionByteCeiling  = 130.0
)

// TestExecTransactionAllocCeiling counts what the data plane allocates
// per transaction: BenchmarkExecStatementRUBiS's schedule runs once
// through ExecTransaction with its parameters drawn outside the
// measured region and the collector off, so the executor's pooled
// scratch stays warm. A get that copies its records again, a lookup
// that allocates a partition key per driving row, or a harness query
// that builds rows it drops fails it.
func TestExecTransactionAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sys, schedule, ps := biddingSchedule(t)
	allocs, bytes := transactionAllocs(t, sys, schedule, ps)
	if allocs > execTransactionAllocCeiling {
		t.Errorf("ExecTransaction allocates %.2f times per RUBiS transaction, ceiling %v", allocs, execTransactionAllocCeiling)
	}
	if bytes > execTransactionByteCeiling {
		t.Errorf("ExecTransaction allocates %.0f B per RUBiS transaction, ceiling %v", bytes, execTransactionByteCeiling)
	}
	t.Logf("ExecTransaction: %.2f allocations (ceiling %v), %.0f B (ceiling %v) per transaction",
		allocs, execTransactionAllocCeiling, bytes, execTransactionByteCeiling)
}

// transactionAllocs runs a schedule once through ExecTransaction with
// its parameters drawn outside the measured region and the collector
// off, and returns the mean allocations and bytes per transaction.
// allocsPerRun's warm-up call runs the schedule's first half and its
// measured call the second, so every measured write is as fresh as in
// the benchmark.
func transactionAllocs(t *testing.T, sys *harness.System, schedule []*rubis.Transaction, ps *rubis.ParamSource) (allocs, bytes float64) {
	t.Helper()
	params := make([]executor.Params, len(schedule))
	for i, txn := range schedule {
		params[i] = ps.Params(txn.Name)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	half, next := len(schedule)/2, 0
	total, totalBytes := allocsPerRun(1, func() {
		for i := next; i < next+half; i++ {
			if _, err := sys.ExecTransaction(schedule[i].Statements, params[i]); err != nil {
				t.Fatal(err)
			}
		}
		next += half
	})
	return float64(total) / float64(half), float64(totalBytes) / float64(half)
}

// quorumTransactionAllocCeiling and quorumTransactionByteCeiling bound
// the mean allocations and bytes of one harness.ExecTransaction over a
// write10 schedule on five nodes at RF 3 with QUORUM reads and writes.
// While every replica read and write allocated its own result and a
// second replica's read copied its records into a fresh slice, a
// transaction took 20.65 allocations and 994 B. With further replicas
// read into the coordinator's scratch and written through the stores'
// result-free cores it took 9.92 and 627 B (go1.24): one result per
// coordinated operation, the rest what three replicas' stores keep of
// each inserted record. With RunQuery returning its Result by value it
// takes 9.24 and 592 B. Both ceilings are 1.3 times the measured value.
const (
	quorumTransactionAllocCeiling = 12.1
	quorumTransactionByteCeiling  = 770.0
)

// TestQuorumTransactionAllocCeiling counts what the replicated data
// plane allocates per transaction: 4,096 write10 transactions, drawn as
// biddingSchedule draws, through ExecTransaction on five nodes at RF 3
// and QUORUM, measured as TestExecTransactionAllocCeiling measures. A
// replica read or write that allocates a result the coordinator drops,
// or a second replica's records copied into a fresh slice, fails it.
func TestQuorumTransactionAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sys, schedule, ps := rubisSchedule(t, rubis.MixWrite10, &harness.ReplicationConfig{
		Nodes: 5, RF: 3, Read: executor.Quorum, Write: executor.Quorum,
	})
	allocs, bytes := transactionAllocs(t, sys, schedule, ps)
	if allocs > quorumTransactionAllocCeiling {
		t.Errorf("quorum ExecTransaction allocates %.2f times per RUBiS transaction, ceiling %v", allocs, quorumTransactionAllocCeiling)
	}
	if bytes > quorumTransactionByteCeiling {
		t.Errorf("quorum ExecTransaction allocates %.0f B per RUBiS transaction, ceiling %v", bytes, quorumTransactionByteCeiling)
	}
	t.Logf("quorum ExecTransaction: %.2f allocations (ceiling %v), %.0f B (ceiling %v) per transaction",
		allocs, quorumTransactionAllocCeiling, bytes, quorumTransactionByteCeiling)
}

// BenchmarkParamSource measures the parameter half of
// BenchmarkExecStatementRUBiS's op alone: one op is one
// rubis.ParamSource.Params for the bidding schedule's next transaction.
func BenchmarkParamSource(b *testing.B) {
	_, schedule, ps := biddingSchedule(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paramSink = ps.Params(schedule[i%len(schedule)].Name)
	}
}

// paramSink keeps BenchmarkParamSource's bindings live.
var paramSink executor.Params

// paramSourceAllocCeiling and paramSourceByteCeiling bound the mean
// allocations and bytes of one ParamSource.Params over the bidding
// schedule. Building a map of 24 or 25 bindings took 11.07 allocations
// and 1,297 B; one struct of fixed slots, its values boxed as they are
// drawn, took 8.07 and 345 B. One 56 B struct of raw draws, each value
// interned in the source the first time it is drawn, takes 1.82 and
// 71 B (go1.24): the struct, a fresh id's box, and the intern slots
// filled for the first time. Both ceilings are 1.3 times the measured
// value.
const (
	paramSourceAllocCeiling = 2.4
	paramSourceByteCeiling  = 93.0
)

// TestParamSourceAllocCeiling counts what drawing one transaction's
// parameters allocates: the schedule's second half drawn once, the
// first half as warm-up, the collector off. A source that builds a map
// per transaction, or boxes a drawn value per draw, fails it.
func TestParamSourceAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, schedule, ps := biddingSchedule(t)
	params := make([]executor.Params, len(schedule))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	half, next := len(schedule)/2, 0
	total, totalBytes := allocsPerRun(1, func() {
		for i := next; i < next+half; i++ {
			params[i] = ps.Params(schedule[i].Name)
		}
		next += half
	})
	allocs, bytes := float64(total)/float64(half), float64(totalBytes)/float64(half)
	if allocs > paramSourceAllocCeiling {
		t.Errorf("ParamSource.Params allocates %.2f times per RUBiS transaction, ceiling %v", allocs, paramSourceAllocCeiling)
	}
	if bytes > paramSourceByteCeiling {
		t.Errorf("ParamSource.Params allocates %.0f B per RUBiS transaction, ceiling %v", bytes, paramSourceByteCeiling)
	}
	t.Logf("ParamSource.Params: %.2f allocations (ceiling %v), %.0f B (ceiling %v) per transaction",
		allocs, paramSourceAllocCeiling, bytes, paramSourceByteCeiling)
}

// datasetByteCeiling and datasetObjectCeiling bound the live heap of
// the RUBiS dataset at 2,000 users (seed 1): 10,482 rows of 51,384
// cells over eight entities, and 18,800 relationship instances, each
// linked both ways. Position-addressed rows (go1.24) hold
//
//   - the cells, 16 B each in 256-row blocks: 54,016 allocated, 864 KB
//     in 44 objects;
//   - the row lists, a 24 B slice header per row with append's slack:
//     13,072 headers, 314 KB in 8 objects;
//   - the boxed values the cells point at: 32,239 numbers outside 0–255
//     at 8 B (258 KB) and 8,082 strings at a 16 B header plus 111 KB of
//     bytes (≈ 260 KB), one object per number and two per string, fewer
//     where the runtime's tiny allocator packs two into one block;
//   - the adjacency, 40,249 from-row list headers at 24 B (966 KB in 22
//     objects) and 37,600 row indices in 26,165 lists of capacity 64,160
//     (257 KB);
//   - the id maps, 10,482 int64 keys in eight map[int64]int32: the rest,
//     ≈ 0.6 MB.
//
// That measured 3.58 MB in 60,363 objects; the qualified-name row maps
// it replaced took 6.59 MB in 93,792. Both ceilings are 1.3 times the
// measured value.
const (
	datasetByteCeiling   = 4_660_000
	datasetObjectCeiling = 78_500
)

// TestDatasetHeapCeiling pins the dataset's memory: RUBiS at 2,000
// users is generated between two collections, and the live heap it
// adds is held to the ceilings above. A row that goes back to a map, a
// cell per allocation or an id map that encodes its keys fails it.
func TestDatasetHeapCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds, err := rubis.Generate(rubis.Config{Users: 2_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ds)
	bytes, objects := int64(after.HeapAlloc)-int64(before.HeapAlloc), int64(after.HeapObjects)-int64(before.HeapObjects)
	if bytes > datasetByteCeiling {
		t.Errorf("the RUBiS dataset at 2,000 users holds %d live bytes, ceiling %d", bytes, datasetByteCeiling)
	}
	if objects > datasetObjectCeiling {
		t.Errorf("the RUBiS dataset at 2,000 users holds %d live objects, ceiling %d", objects, datasetObjectCeiling)
	}
	t.Logf("RUBiS dataset at 2,000 users: %d B (ceiling %d), %d objects (ceiling %d)",
		bytes, datasetByteCeiling, objects, datasetObjectCeiling)
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
