package search_test

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nose/internal/hotel"
	"nose/internal/nosedsl"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/search"
	"nose/internal/workload"

	"nose/internal/bip"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// seriesTestOptions keeps series solves small enough for tests while
// staying fully deterministic. The golden file is rendered under
// exactly these options; change them and the golden must be
// regenerated with -update.
func seriesTestOptions() search.Options {
	return search.Options{
		Planner:         planner.Config{MaxPlansPerQuery: 6},
		MaxSupportPlans: 4,
		BIP:             bip.Options{MaxNodes: 400},
	}
}

// loadPhasedHotel parses the shipped three-phase hotel workload.
func loadPhasedHotel(t *testing.T) *workload.Workload {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "hotel-phases.nose"))
	if err != nil {
		t.Fatal(err)
	}
	_, w, err := nosedsl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Phases) != 3 {
		t.Fatalf("expected 3 phases, got %d", len(w.Phases))
	}
	return w
}

// hotelWorkload builds the in-memory hotel fixture used by the static
// advisor tests.
func hotelWorkload(t *testing.T) *workload.Workload {
	t.Helper()
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
}

// TestAdviseSeriesSinglePhaseMatchesAdvise: with zero or one phase
// there is no series decision to make, and AdviseSeries must be
// bit-identical to Advise — same schema bytes, same objective bits,
// same plan signatures — with no migration charged.
func TestAdviseSeriesSinglePhaseMatchesAdvise(t *testing.T) {
	for _, phases := range []int{0, 1} {
		w := hotelWorkload(t)
		if phases == 1 {
			w.AddPhase(&workload.Phase{Name: "only", Duration: 1})
		}
		opt := seriesTestOptions()
		rec, err := search.Advise(w, opt)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := search.AdviseSeries(w, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Phases) != 1 {
			t.Fatalf("%d phases: got %d series entries", phases, len(sr.Phases))
		}
		pr := sr.Phases[0]
		if pr.Rec.Schema.String() != rec.Schema.String() {
			t.Errorf("%d phases: schemas differ:\n%s\nvs\n%s", phases, pr.Rec.Schema, rec.Schema)
		}
		if pr.Rec.Cost != rec.Cost {
			t.Errorf("%d phases: costs differ: %v vs %v", phases, pr.Rec.Cost, rec.Cost)
		}
		if sr.TotalCost != rec.Cost || sr.WorkloadCost != rec.Cost {
			t.Errorf("%d phases: series totals %v/%v != advise cost %v",
				phases, sr.WorkloadCost, sr.TotalCost, rec.Cost)
		}
		if sr.MigrationCost != 0 || pr.MigrationCost != 0 {
			t.Errorf("%d phases: migration charged on a degenerate series", phases)
		}
		if len(pr.Rec.Queries) != len(rec.Queries) {
			t.Fatalf("%d phases: query counts differ", phases)
		}
		for i := range rec.Queries {
			if pr.Rec.Queries[i].Plan.Signature() != rec.Queries[i].Plan.Signature() {
				t.Errorf("%d phases: plan %d differs", phases, i)
			}
		}
	}
}

// TestAdviseSeriesWorkerInvariance: the schema series — phase schemas,
// migration points, and every printed cost — must be byte-identical
// for 1, 4, and 8 workers.
func TestAdviseSeriesWorkerInvariance(t *testing.T) {
	var base string
	for _, workers := range []int{1, 4, 8} {
		opt := seriesTestOptions()
		opt.Workers = workers
		sr, err := search.AdviseSeries(loadPhasedHotel(t), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := sr.Format()
		if workers == 1 {
			base = out
			continue
		}
		if out != base {
			t.Errorf("workers=%d series differs from workers=1:\n%s\nvs\n%s", workers, out, base)
		}
	}
}

// TestAdviseSeriesGolden pins the printed per-phase schema series for
// the shipped hotel-phases workload. Regenerate with:
//
//	go test ./internal/search -run TestAdviseSeriesGolden -update
func TestAdviseSeriesGolden(t *testing.T) {
	sr, err := search.AdviseSeries(loadPhasedHotel(t), seriesTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := sr.Format()
	golden := filepath.Join("testdata", "hotel-phases.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("series output drifted from golden (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAdviseSeriesChargesInitialBuild: the first phase's installation
// is part of the objective, so the reported migration cost must cover
// every family of phase 0 — a free initial build would let the solver
// pre-install everything at t=0 and dodge all migration charges.
func TestAdviseSeriesChargesInitialBuild(t *testing.T) {
	sr, err := search.AdviseSeries(loadPhasedHotel(t), seriesTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	p0 := sr.Phases[0]
	if len(p0.Build) != p0.Rec.Schema.Len() {
		t.Errorf("phase 0 builds %d of %d families", len(p0.Build), p0.Rec.Schema.Len())
	}
	if p0.MigrationCost <= 0 {
		t.Errorf("phase 0 migration cost %v, want > 0", p0.MigrationCost)
	}
	if sr.MigrationCost < p0.MigrationCost {
		t.Errorf("series migration cost %v below phase 0's %v", sr.MigrationCost, p0.MigrationCost)
	}
	if sr.TotalCost != sr.WorkloadCost+sr.MigrationCost {
		t.Errorf("total %v != workload %v + migration %v", sr.TotalCost, sr.WorkloadCost, sr.MigrationCost)
	}
}

// TestAdviseSeriesInfeasibleWrapsErrInfeasible: a series whose space
// budget no covering schema fits is proven infeasible, and the error
// says so the way Advise's does, so callers can branch on it.
func TestAdviseSeriesInfeasibleWrapsErrInfeasible(t *testing.T) {
	opt := seriesTestOptions()
	opt.SpaceBudgetBytes = 1
	sr, err := search.AdviseSeries(loadPhasedHotel(t), opt)
	if !errors.Is(err, search.ErrInfeasible) {
		t.Fatalf("err = %v, want one wrapping search.ErrInfeasible", err)
	}
	if sr != nil {
		t.Fatal("an infeasible series returned a recommendation")
	}
}

// TestAdviseSeriesPublishesProblemSize: a series counts its problem
// size in the registry as an advise does, equal to what it reports in
// its Stats.
func TestAdviseSeriesPublishesProblemSize(t *testing.T) {
	opt := seriesTestOptions()
	opt.Obs = obs.NewRegistry()
	sr, err := search.AdviseSeries(loadPhasedHotel(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	counters := opt.Obs.Snapshot().Counters
	for name, want := range map[string]int{
		"search.candidates":     sr.Stats.Candidates,
		"search.plan_variables": sr.Stats.PlanVariables,
		"search.constraints":    sr.Stats.Constraints,
	} {
		got, ok := counters[name]
		if !ok {
			t.Errorf("%s not registered", name)
		} else if got != int64(want) {
			t.Errorf("%s = %d, want Stats' %d", name, got, want)
		}
	}
}

// TestAdviseSeriesTracesAdviseStages: a series runs the advisor's
// stages under their own names, with no phase 2, below its root span.
func TestAdviseSeriesTracesAdviseStages(t *testing.T) {
	opt := seriesTestOptions()
	opt.Trace = obs.NewTracer()
	if _, err := search.AdviseSeries(loadPhasedHotel(t), opt); err != nil {
		t.Fatal(err)
	}
	want := []string{"enumerate", "plan-spaces", "formulate", "solve phase 1", "extract", "advise-series"}
	if got := spanNames(opt.Trace); !slices.Equal(got, want) {
		t.Fatalf("series traced %v, want %v", got, want)
	}
}
