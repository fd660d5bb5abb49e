package harness_test

import (
	"errors"
	"sync"
	"testing"

	"nose/internal/backend"
	"nose/internal/baselines"
	"nose/internal/cost"
	"nose/internal/drift"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/migrate"
	"nose/internal/model"
	"nose/internal/rubis"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/verify"
	"nose/internal/workload"
)

// liveFixture builds a small RUBiS dataset with its transactions and an
// expert recommendation, plus an empty-schema system to migrate: healthy
// and bare unless a declare hook adds layers to its Config.
func liveFixture(t *testing.T, declare ...func(*harness.Config)) (*backend.Dataset, []*rubis.Transaction, *search.Recommendation, *harness.System, rubis.Config) {
	t.Helper()
	cfg := rubis.Config{Users: 200, Seed: 3}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := baselines.ExpertRUBiS(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := search.AdvisePinned(w, pool, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := harness.Config{
		Name: "live", Rec: &search.Recommendation{Schema: schema.NewSchema()},
		Latency: cost.DefaultParams(), Dataset: ds,
	}
	for _, d := range declare {
		d(&sc)
	}
	sys, err := harness.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	return ds, txns, rec, sys, cfg
}

// familyWeather declares a family fault injector for liveFixture.
func familyWeather(seed int64, p faults.Profile) func(*harness.Config) {
	return func(c *harness.Config) {
		c.FamilyWeather = &harness.Weather{Seed: seed, Profile: p}
	}
}

// TestLiveMigrationServesWhileMigrating: statements keep executing on
// the old plans during backfill, the plan cutover happens exactly when
// every record has landed, and afterward the system serves the new
// schema — with the whole ledger visible in the harness.live.*
// instruments.
func TestLiveMigrationServesWhileMigrating(t *testing.T) {
	ds, txns, rec, sys, cfg := liveFixture(t)

	ctrl, err := sys.StartLiveMigration(ds, &search.PhaseRecommendation{
		Rec:   rec,
		Build: rec.Schema.Indexes(),
	}, migrate.LiveOptions{ChunkRecords: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.LiveActive() {
		t.Fatal("LiveActive false right after StartLiveMigration")
	}

	// Interleave: before cutover the old (empty) schema has no query
	// plans, so queries must still fail; write statements execute as
	// forwarded dual-writes.
	ps := rubis.NewParamSource(cfg, 1)
	cutoverSeen := false
	for steps := 0; sys.LiveActive(); steps++ {
		if steps > 10_000 {
			t.Fatal("live migration never finished")
		}
		sr, err := sys.LiveStep()
		if err != nil {
			t.Fatal(err)
		}
		if sr.State == migrate.StateCutover {
			cutoverSeen = true
		}
		txn := txns[steps%len(txns)]
		_, execErr := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name))
		if !cutoverSeen {
			continue
		}
		// After cutover the new plans serve every transaction.
		if execErr != nil && sys.LiveActive() == false {
			t.Fatalf("%s after cutover: %v", txn.Name, execErr)
		}
	}
	if !cutoverSeen {
		t.Fatal("migration finished without a cutover step")
	}
	if got := sys.Rec(); got != rec {
		t.Fatal("system is not serving the migrated recommendation")
	}
	ps = rubis.NewParamSource(cfg, 1)
	for _, txn := range txns {
		if _, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name)); err != nil {
			t.Fatalf("%s after live migration: %v", txn.Name, err)
		}
	}
	res := ctrl.Result()
	if res.Records <= 0 || res.SimMillis <= 0 {
		t.Errorf("live migration charged nothing: %+v", res)
	}
	for _, name := range []string{"harness.live.started", "harness.live.cutovers", "harness.live.completed"} {
		if got := counter(t, sys, name); got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	if _, aborted := sys.Obs().Snapshot().Counters["harness.live.aborted"]; aborted {
		t.Error("a completed migration counted an abort")
	}
	if got := counter(t, sys, "harness.live.backfill_records"); got != int64(res.Records) {
		t.Errorf("harness.live.backfill_records = %d, want %d", got, res.Records)
	}
	if gauge(t, sys, "harness.live.sim_ms") <= 0 {
		t.Error("migration simulated time not charged into harness.live.sim_ms")
	}
}

// TestLiveMigrationAbortRollsBackUnderFaults: with a hostile fault
// profile on the families under construction and a tiny budget, the
// migration must abort, drop everything it built, keep the old schema
// serving, and count the abort.
func TestLiveMigrationAbortRollsBackUnderFaults(t *testing.T) {
	cfg := rubis.Config{Users: 200, Seed: 3}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := baselines.ExpertRUBiS(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := search.AdvisePinned(w, pool, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Start on the real schema so "old keeps serving" is observable.
	sys, err := harness.New(harness.Config{
		Name: "aborting", Rec: rec, Latency: cost.DefaultParams(), Dataset: ds,
		FamilyWeather: &harness.Weather{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := sys.Faults()

	// The target schema adds one extra family; make every operation on
	// it fail permanently.
	extra := schema.NewSchema()
	for _, x := range rec.Schema.Indexes() {
		extra.Add(x)
	}
	var added []*schema.Index
	for _, e := range ds.Graph.Entities() {
		x := schema.New(model.NewPath(e), []*model.Attribute{e.Key()}, nil, e.NonKeyAttributes())
		if extra.Lookup(x) == nil {
			added = append(added, extra.Add(x))
			break
		}
	}
	if len(added) == 0 {
		t.Fatal("fixture: no family to add")
	}
	for _, x := range added {
		inj.MarkDown(x.Name)
	}

	target := &search.Recommendation{Schema: extra, Queries: rec.Queries, Updates: rec.Updates}
	_, err = sys.StartLiveMigration(ds, &search.PhaseRecommendation{Rec: target, Build: added},
		migrate.LiveOptions{ChunkRecords: 8, FaultBudget: 3})
	if err != nil {
		t.Fatal(err)
	}

	ps := rubis.NewParamSource(cfg, 1)
	var liveErr error
	for steps := 0; sys.LiveActive() && liveErr == nil; steps++ {
		if steps > 1000 {
			t.Fatal("migration neither finished nor aborted")
		}
		_, liveErr = sys.LiveStep()
		txn := txns[steps%len(txns)]
		if _, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name)); err != nil {
			t.Fatalf("%s during doomed migration: %v", txn.Name, err)
		}
	}
	if !errors.Is(liveErr, migrate.ErrAborted) {
		t.Fatalf("live error = %v, want ErrAborted", liveErr)
	}
	if sys.LiveActive() {
		t.Fatal("aborted migration still registered as active")
	}
	// No orphan families: the half-built ones are gone from the store.
	for _, x := range added {
		if _, err := sys.Store.Def(x.Name); err == nil {
			t.Errorf("aborted migration left family %s installed", x.Name)
		}
	}
	// The old schema keeps serving every transaction.
	if got := sys.Rec(); got != rec {
		t.Fatal("aborted migration changed the serving recommendation")
	}
	for _, txn := range txns {
		if _, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name)); err != nil {
			t.Fatalf("%s after abort: %v", txn.Name, err)
		}
	}
	if got := counter(t, sys, "harness.live.aborted"); got != 1 {
		t.Errorf("harness.live.aborted = %d, want exactly one abort", got)
	}
	counters := sys.Obs().Snapshot().Counters
	for _, name := range []string{"harness.live.cutovers", "harness.live.completed"} {
		if _, ok := counters[name]; ok {
			t.Errorf("an aborted migration counted %s", name)
		}
	}
	if counter(t, sys, "harness.live.faults") == 0 {
		t.Error("abort charged no faults")
	}
	if gauge(t, sys, "harness.live.sim_ms") <= 0 {
		t.Error("failed backfill attempts charged no simulated time")
	}
	_ = w
}

// TestMigrateUnderConcurrentStatements: Migrate is a live migration
// stepped to completion inside one call, so statements that overlap it
// are neither refused nor a reason to refuse. Racing a client goroutine,
// it must succeed on the first attempt; the client may only ever see
// ErrNoPlan (the empty schema it starts on answers no query until the
// cutover); and the attached verifier — which sees the forwarded dual
// writes and the bulk-loaded copy alike — must find nothing lost and
// nothing orphaned afterwards. Run under -race in CI.
func TestMigrateUnderConcurrentStatements(t *testing.T) {
	ds, txns, rec, sys, cfg := liveFixture(t, func(c *harness.Config) { c.Verifier = verify.New() })
	pr := &search.PhaseRecommendation{Rec: rec, Build: rec.Schema.Indexes()}

	var wg sync.WaitGroup
	started, stop := make(chan struct{}), make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ps := rubis.NewParamSource(cfg, 2)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			txn := txns[i%len(txns)]
			_, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name))
			if err != nil && !errors.Is(err, harness.ErrNoPlan) {
				t.Errorf("%s during Migrate: %v", txn.Name, err)
			}
			if i == 0 {
				close(started)
			}
		}
	}()

	<-started
	res, err := sys.Migrate(ds, pr)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Migrate under traffic: %v", err)
	}
	if len(res.Built) != rec.Schema.Len() || res.Records <= 0 {
		t.Errorf("migration result = %+v, want all %d families built", res, rec.Schema.Len())
	}
	if sys.LiveActive() {
		t.Error("Migrate returned with the migration slot still held")
	}
	rep, err := sys.VerifyCheck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("verifier after Migrate under traffic:\n%s", rep.Format())
	}
	// The system serves the new schema.
	ps := rubis.NewParamSource(cfg, 1)
	for _, txn := range txns {
		if _, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name)); err != nil {
			t.Fatalf("%s after migration: %v", txn.Name, err)
		}
	}
}

// TestMigrateRefusedDuringLiveMigration: the legacy stop-the-world path
// must refuse while a background migration is running.
func TestMigrateRefusedDuringLiveMigration(t *testing.T) {
	ds, _, rec, sys, _ := liveFixture(t)
	pr := &search.PhaseRecommendation{Rec: rec, Build: rec.Schema.Indexes()}
	if _, err := sys.StartLiveMigration(ds, pr, migrate.LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Migrate(ds, pr); err == nil {
		t.Fatal("stop-the-world Migrate allowed during a live migration")
	}
	if _, err := sys.StartLiveMigration(ds, pr, migrate.LiveOptions{}); err == nil {
		t.Fatal("second concurrent live migration allowed")
	}
	if _, err := sys.DrainLiveMigration(0); err != nil {
		t.Fatal(err)
	}
}

// TestDriftDetectorWiring: EnableDrift observes executed statements,
// mirrors the mix into harness.mix.* counters, binds the detector's
// drift.* instruments to the system registry, and parks exactly one
// trigger for TakeDriftTrigger.
func TestDriftDetectorWiring(t *testing.T) {
	ds, txns, rec, sys, cfg := liveFixture(t)
	if _, err := sys.Migrate(ds, &search.PhaseRecommendation{Rec: rec, Build: rec.Schema.Indexes()}); err != nil {
		t.Fatal(err)
	}

	// Target mix: transaction 0 only. Then execute a very different mix.
	target := map[string]float64{}
	for _, st := range txns[0].Statements {
		target[workload.Label(st)]++
	}
	det := drift.New(drift.Config{WindowStatements: 20, ConfirmWindows: 1, CooldownWindows: -1}, target)
	sys.EnableDrift(det)

	ps := rubis.NewParamSource(cfg, 1)
	other := txns[1]
	for i := 0; i < 30; i++ {
		if _, err := sys.ExecTransaction(other.Statements, ps.Params(other.Name)); err != nil {
			t.Fatal(err)
		}
	}
	mix := sys.TakeDriftTrigger()
	if mix == nil {
		t.Fatal("drifted traffic parked no trigger")
	}
	if sys.TakeDriftTrigger() != nil {
		t.Fatal("trigger consumed twice")
	}
	if counter(t, sys, "drift.triggers") == 0 {
		t.Fatal("detector counted no trigger")
	}
	label := workload.Label(other.Statements[0])
	if got := counter(t, sys, "harness.mix."+label); got < 30 {
		t.Errorf("harness.mix.%s = %d, want >= 30", label, got)
	}
}
