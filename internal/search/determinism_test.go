package search_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"nose/internal/bip"
	"nose/internal/hotel"
	"nose/internal/obs"
	"nose/internal/randwork"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/workload"
)

// TestAdviseDeterministic: two runs on the same workload must produce
// identical schemas and plans — candidate IDs, plan ordering, and BIP
// construction are all canonicalized.
func TestAdviseDeterministic(t *testing.T) {
	run := func() *search.Recommendation {
		g := hotel.Graph()
		w := workload.New(g)
		for i, src := range []string{hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery} {
			q := workload.MustParseQuery(g, src)
			q.Label = string(rune('A' + i))
			w.Add(q, float64(i+1))
		}
		w.Add(workload.MustParse(g, hotel.UpdateStatements[0]), 0.5)
		w.Add(workload.MustParse(g, hotel.UpdateStatements[2]), 0.25)
		rec, err := search.Advise(w, search.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, b := run(), run()
	if a.Schema.String() != b.Schema.String() {
		t.Errorf("schemas differ:\n%s\nvs\n%s", a.Schema, b.Schema)
	}
	if a.Cost != b.Cost {
		t.Errorf("costs differ: %v vs %v", a.Cost, b.Cost)
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("query counts differ")
	}
	for i := range a.Queries {
		if a.Queries[i].Plan.Signature() != b.Queries[i].Plan.Signature() {
			t.Errorf("plan %d differs", i)
		}
	}
}

// TestAdviseWorkerInvariance: the recommendation must be byte-identical
// for every worker count — schema rendering, objective bits, plan
// signatures, node counts, and how each solver phase ended (phase 2's
// root starts from phase 1's root basis, which worker 0 alone solves,
// whatever the count) — and so must every bip.*, lp.*,
// search.* and planner.* counter: they count the explored tree and the
// LP work on it (pivots, refactorizations and the ones a sibling reused,
// evaluated fixed programs, nodes pruned by rounding), which
// sibling-pair scheduling keeps independent of who solved what, and the
// planner's requests and table sizes, which do not depend on which
// worker generated a shared segment or step first. Parallelism may only
// change wall-clock time, never the answer nor the work.
func TestAdviseWorkerInvariance(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *workload.Workload
		opt   search.Options
	}{
		{
			name: "hotel",
			build: func(t *testing.T) *workload.Workload {
				g := hotel.Graph()
				w := workload.New(g)
				for i, src := range []string{hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery} {
					q := workload.MustParseQuery(g, src)
					q.Label = string(rune('A' + i))
					w.Add(q, float64(i+1))
				}
				w.Add(workload.MustParse(g, hotel.UpdateStatements[0]), 0.5)
				w.Add(workload.MustParse(g, hotel.UpdateStatements[2]), 0.25)
				return w
			},
		},
		{
			name: "rubis",
			build: func(t *testing.T) *workload.Workload {
				w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
				if err != nil {
					t.Fatal(err)
				}
				return w
			},
			// The full RUBiS program is large; bound the solve the same
			// way the benchmarks do. Worker invariance must hold even
			// under node and gap cutoffs.
			opt: search.Options{},
		},
		{
			name: "randwork",
			build: func(t *testing.T) *workload.Workload {
				// A synthetic stress workload: enough statements that
				// branch and bound expands multiple batches and the warm
				// starts cross worker boundaries.
				w, err := randwork.Generate(randwork.Config{Factor: 2, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				return w
			},
		},
		{
			// The benchmark's advise-randwork input, where the planner's
			// segment memo and step table are busiest.
			name: "randwork-f3s42",
			build: func(t *testing.T) *workload.Workload {
				w, err := randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				return w
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) (*search.Recommendation, map[string]int64) {
				opt := tc.opt
				opt.Workers = workers
				opt.Obs = obs.NewRegistry()
				if tc.name != "hotel" {
					opt.Planner.MaxPlansPerQuery = 16
					opt.MaxSupportPlans = 4
					opt.BIP.MaxNodes = 60
					opt.BIP.Gap = 0.01
				}
				rec, err := search.Advise(tc.build(t), opt)
				if err != nil {
					t.Fatal(err)
				}
				counters := map[string]int64{}
				for name, v := range opt.Obs.Snapshot().Counters {
					for _, layer := range []string{"bip.", "lp.", "search.", "planner."} {
						if strings.HasPrefix(name, layer) {
							counters[name] = v
						}
					}
				}
				return rec, counters
			}
			base, baseCounters := run(1)
			for _, name := range []string{"bip.nodes", "bip.fixed_evals", "lp.solves", "lp.factor_reuses", "lp.primal_warm_starts",
				"search.phase1.nodes", "search.phase2.solves",
				"planner.segment_requests", "planner.segments", "planner.step_requests", "planner.steps",
				"planner.candidates_examined", "planner.chains_joined"} {
				if baseCounters[name] == 0 {
					t.Errorf("counter %s is zero: the comparison below would be vacuous", name)
				}
			}
			for _, workers := range []int{2, 4, 8} {
				rec, counters := run(workers)
				if !reflect.DeepEqual(counters, baseCounters) {
					for name, want := range baseCounters {
						if got := counters[name]; got != want {
							t.Errorf("workers=%d: counter %s = %d, %d at workers=1", workers, name, got, want)
						}
					}
					if len(counters) != len(baseCounters) {
						t.Errorf("workers=%d: %d counters, %d at workers=1", workers, len(counters), len(baseCounters))
					}
				}
				if got, want := rec.Schema.String(), base.Schema.String(); got != want {
					t.Errorf("workers=%d: schema differs:\n%s\nvs workers=1:\n%s", workers, got, want)
				}
				if math.Float64bits(rec.Cost) != math.Float64bits(base.Cost) {
					t.Errorf("workers=%d: cost %v vs %v (not bit-identical)", workers, rec.Cost, base.Cost)
				}
				if rec.Stats.Nodes != base.Stats.Nodes {
					t.Errorf("workers=%d: explored %d nodes vs %d", workers, rec.Stats.Nodes, base.Stats.Nodes)
				}
				if rec.Stats.Phase1 != base.Stats.Phase1 || rec.Stats.Phase2 != base.Stats.Phase2 {
					t.Errorf("workers=%d: phases ended %+v / %+v vs %+v / %+v", workers,
						rec.Stats.Phase1, rec.Stats.Phase2, base.Stats.Phase1, base.Stats.Phase2)
				}
				if len(rec.Queries) != len(base.Queries) {
					t.Fatalf("workers=%d: %d query plans vs %d", workers, len(rec.Queries), len(base.Queries))
				}
				for i := range rec.Queries {
					if rec.Queries[i].Plan.Signature() != base.Queries[i].Plan.Signature() {
						t.Errorf("workers=%d: plan %d differs", workers, i)
					}
				}
				if len(rec.Updates) != len(base.Updates) {
					t.Fatalf("workers=%d: %d update plans vs %d", workers, len(rec.Updates), len(base.Updates))
				}
			}
		})
	}
}

// TestAdviseCostMatchesChosenPlans: the reported optimal cost must
// equal the weighted sum of the chosen plans' costs plus maintenance.
func TestAdviseCostMatchesChosenPlans(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	w.Add(q, 2.5)
	rec, err := search.Advise(w, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 2.5 * rec.Queries[0].Plan.Cost
	if diff := rec.Cost - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("cost %v, plans sum to %v", rec.Cost, want)
	}
}

// TestLPSolveAccounting: every LP solve request ends in exactly one of
// four ways — cold by request, on the dual warm-started path of a node
// (whatever its answer, a proof of infeasibility included), on the
// primal warm-started path of phase 2's root, or warm-started and fallen
// back cold — so the four counters add up to lp.solves, and
// -solver-stats' warm-start share is a share of everything. Every input
// here runs phase 2, whose root starts from phase 1's root basis, which
// satisfies the pinned cost row: that root is one primal warm start and
// never a fallback.
func TestLPSolveAccounting(t *testing.T) {
	var infeasible int64
	for _, tc := range []struct {
		name  string
		build func() (*workload.Workload, error)
	}{
		{"rubis", func() (*workload.Workload, error) {
			w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
			return w, err
		}},
		{"hotel", func() (*workload.Workload, error) {
			g := hotel.Graph()
			w := workload.New(g)
			for _, src := range []string{hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery} {
				w.Add(workload.MustParseQuery(g, src), 1)
			}
			w.Add(workload.MustParse(g, hotel.UpdateStatements[0]), 0.5)
			return w, nil
		}},
		{"randwork", func() (*workload.Workload, error) {
			return randwork.Generate(randwork.Config{Factor: 1, Seed: 7})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			if _, err := search.Advise(w, search.Options{Workers: 2, Obs: reg, BIP: bip.Options{MaxNodes: 400}}); err != nil {
				t.Fatal(err)
			}
			c := reg.Snapshot().Counters
			solves, cold, warm, fallbacks := c["lp.solves"], c["lp.cold_solves"], c["lp.warm_starts"], c["lp.warm_fallbacks"]
			primal := c["lp.primal_warm_starts"]
			if solves == 0 || cold+warm+primal+fallbacks != solves {
				t.Errorf("lp.solves %d != %d cold + %d warm + %d primal warm + %d fallbacks", solves, cold, warm, primal, fallbacks)
			}
			if primal != 1 || fallbacks != 0 {
				t.Errorf("phase 2's root: %d primal warm starts and %d fallbacks, want 1 and 0", primal, fallbacks)
			}
			inf := c["lp.warm_infeasible"]
			if inf > warm {
				t.Errorf("lp.warm_infeasible %d exceeds the %d warm starts it is a part of", inf, warm)
			}
			infeasible += inf
		})
	}
	if infeasible == 0 {
		t.Error("no input had a warm start prove infeasibility: the case this test is for never ran")
	}
}
