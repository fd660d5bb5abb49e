package harness_test

import (
	"errors"
	"sync"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/journal"
	"nose/internal/migrate"
	"nose/internal/model"
	"nose/internal/rubis"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/verify"
)

// crashRun drives the liveFixture's empty-schema -> expert-schema live
// migration with a journal whose SiteJournal crash point is armed at
// the append index arm returns (nil: never crashes), interleaving
// transactions so dual-writes flow. arm receives the number of build
// families so callers can address indexes relative to the journal's
// prologue (Start, Created x build, State(backfill), chunks...). It
// stops at the crash (or at completion) and returns the pieces a
// recovered incarnation needs: the surviving system with its journal,
// the phase recommendation, and the cross-crash verifier. crashed
// reports whether the armed crash actually fired.
func crashRun(t *testing.T, arm func(buildFamilies int) int64) (ds *backend.Dataset, sys incarnation, pr *search.PhaseRecommendation, v *verify.Verifier, crashed bool) {
	t.Helper()
	v = verify.New()
	cr := faults.NewCrashes()
	sys.journal = journal.New(journal.Options{Crashes: cr})
	ds, txns, rec, live, cfg := liveFixture(t, func(c *harness.Config) {
		c.Verifier, c.Journal = v, sys.journal
	})
	sys.System = live
	if arm != nil {
		cr.Arm(faults.SiteJournal, arm(len(rec.Schema.Indexes())))
	}

	pr = &search.PhaseRecommendation{Rec: rec, Build: rec.Schema.Indexes()}
	_, err := sys.StartLiveMigration(ds, pr,
		migrate.LiveOptions{ChunkRecords: 40, Params: migrate.DefaultCostParams()})
	if err != nil {
		if faults.IsCrash(err) {
			return ds, sys, pr, v, true
		}
		t.Fatal(err)
	}
	ps := rubis.NewParamSource(cfg, 1)
	for steps := 0; sys.LiveActive(); steps++ {
		if steps > 10_000 {
			t.Fatal("live migration never finished or crashed")
		}
		_, err := sys.LiveStep()
		if faults.IsCrash(err) {
			// The simulated process is dead: nothing else executes on
			// this incarnation.
			return ds, sys, pr, v, true
		}
		if err != nil {
			t.Fatal(err)
		}
		txn := txns[steps%len(txns)]
		// Pre-cutover the empty serving schema answers no queries;
		// writes forward to the families under construction. Errors on
		// the query side are expected until cutover.
		_, _ = sys.ExecTransaction(txn.Statements, ps.Params(txn.Name))
	}
	return ds, sys, pr, v, false
}

// incarnation is one life of a simulated process: a system and the
// journal it was declared with, whose durable bytes outlive it.
type incarnation struct {
	*harness.System
	journal *journal.Journal
}

// restartOver declares the next incarnation over a crashed one's
// surviving store, serving what it served.
func restartOver(t *testing.T, name string, crashed *harness.System, v *verify.Verifier, j *journal.Journal) *harness.System {
	t.Helper()
	sys, err := harness.New(harness.Config{
		Name: name, Rec: crashed.Rec(), Latency: cost.DefaultParams(), Store: crashed.Store,
		Verifier: v, Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// recoverSystem restarts a crashed incarnation: it re-reads the durable
// journal bytes, declares a fresh system over the surviving store with
// the reopened journal and the same verifier, and replays the journal.
func recoverSystem(t *testing.T, ds *backend.Dataset, crashed incarnation, pr *search.PhaseRecommendation, v *verify.Verifier, ropts harness.RecoverOptions) (incarnation, *harness.RecoverReport) {
	t.Helper()
	j2, recs, err := journal.Open(crashed.journal.Durable(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys2 := incarnation{restartOver(t, "recovered", crashed.System, v, j2), j2}
	if ropts.Live.Params == (migrate.CostParams{}) {
		ropts.Live = migrate.LiveOptions{ChunkRecords: 40, Params: migrate.DefaultCostParams()}
	}
	rep, err := sys2.Recover(ds, recs, pr, ropts)
	if err != nil {
		t.Fatal(err)
	}
	return sys2, rep
}

// mustVerify asserts the declared verifier passes all invariants.
func mustVerify(t *testing.T, sys *harness.System) {
	t.Helper()
	rep, err := sys.VerifyCheck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("invariant check failed:\n%s", rep.Format())
	}
}

// TestRecoverResumesMidBackfill: a crash in the middle of backfill
// recovers by resuming from the durable chunk watermark; the drained
// migration cuts over, the verifier passes, and the recovery ledger
// shows one resumed attempt.
func TestRecoverResumesMidBackfill(t *testing.T) {
	// Appends: Start, Created x B, State(backfill), then chunks. Arming
	// two chunks in guarantees a mid-backfill crash.
	ds, sys, pr, v, crashed := crashRun(t, midBackfill)
	if !crashed {
		t.Fatal("armed crash never fired")
	}
	sys2, rep := recoverSystem(t, ds, sys, pr, v, harness.RecoverOptions{})
	if rep.Outcome != harness.RecoverResumed {
		t.Fatalf("outcome = %v, want RecoverResumed", rep.Outcome)
	}
	if rep.Watermark <= 0 || rep.Watermark >= rep.TotalRecords {
		t.Fatalf("watermark %d not strictly inside (0, %d)", rep.Watermark, rep.TotalRecords)
	}
	if !sys2.LiveActive() {
		t.Fatal("resumed migration not active")
	}
	if st, err := sys2.DrainLiveMigration(0); err != nil || st != migrate.StateDone {
		t.Fatalf("drain: state %v, err %v", st, err)
	}
	if sys2.Rec() != pr.Rec {
		t.Fatal("recovered system did not adopt the migrated recommendation")
	}
	mustVerify(t, sys2.System)
	r := sys2.Robustness().Recovery
	if r.Attempts != 1 || r.Resumed != 1 {
		t.Fatalf("recovery stats = %+v, want one resumed attempt", r)
	}
}

// midBackfill arms the crash two chunk appends into backfill.
func midBackfill(buildFamilies int) int64 { return int64(buildFamilies) + 3 }

// TestRecoverRollsForwardAtCutover: crashes at the cutover-era journal
// appends land past the point of no return; recovery rolls the
// migration forward — plans adopted, verifier clean — instead of
// resuming or rolling back.
func TestRecoverRollsForwardAtCutover(t *testing.T) {
	// Learn the append index of the cutover state record from a clean
	// run, then re-run arming a crash there and one past it (the
	// harness's cutover-applied record).
	_, clean, _, _, crashed := crashRun(t, nil)
	if crashed {
		t.Fatal("clean run crashed")
	}
	recs, err := journal.Replay(clean.journal.Durable())
	if err != nil {
		t.Fatal(err)
	}
	cutoverAt := int64(-1)
	for _, r := range recs {
		if r.Kind == journal.KindState && migrate.State(r.State) == migrate.StateCutover {
			cutoverAt = int64(r.Seq)
			break
		}
	}
	if cutoverAt < 0 {
		t.Fatal("clean run journaled no cutover state record")
	}
	for _, armAt := range []int64{cutoverAt, cutoverAt + 1} {
		at := armAt
		ds, sys, pr, v, crashed := crashRun(t, func(int) int64 { return at })
		if !crashed {
			t.Fatalf("crash armed at %d never fired", armAt)
		}
		sys2, rep := recoverSystem(t, ds, sys, pr, v, harness.RecoverOptions{})
		if rep.Outcome != harness.RecoverCompleted {
			t.Fatalf("arm %d: outcome = %v, want RecoverCompleted", armAt, rep.Outcome)
		}
		if sys2.LiveActive() {
			t.Fatalf("arm %d: rolled-forward migration still active", armAt)
		}
		if sys2.Rec() != pr.Rec {
			t.Fatalf("arm %d: recovered system not serving the new schema", armAt)
		}
		mustVerify(t, sys2.System)
		if r := sys2.Robustness().Recovery; r.Completed != 1 {
			t.Fatalf("arm %d: recovery stats = %+v, want one completed attempt", armAt, r)
		}
	}
}

// TestRecoverRollBackOption: the caller can choose to roll an in-flight
// migration back instead of resuming; recovery garbage-collects every
// family the crashed incarnation built and a second recovery over the
// extended journal is an idempotent no-op rollback.
func TestRecoverRollBackOption(t *testing.T) {
	ds, sys, pr, v, crashed := crashRun(t, midBackfill)
	if !crashed {
		t.Fatal("armed crash never fired")
	}
	oldRec := sys.Rec()
	sys2, rep := recoverSystem(t, ds, sys, pr, v, harness.RecoverOptions{RollBack: true})
	if rep.Outcome != harness.RecoverRolledBack {
		t.Fatalf("outcome = %v, want RecoverRolledBack", rep.Outcome)
	}
	if len(rep.OrphansDropped) == 0 {
		t.Fatal("rollback dropped no orphan families")
	}
	for _, x := range pr.Build {
		if _, err := sys2.Store.Def(x.Name); err == nil {
			t.Errorf("rolled-back family %s still installed", x.Name)
		}
	}
	if sys2.Rec() != oldRec {
		t.Fatal("rollback changed the serving recommendation")
	}
	mustVerify(t, sys2.System)

	// Idempotency: recover again over the journal that now carries the
	// abort intent and the recovery record. Same decision, nothing left
	// to drop.
	sys3, rep3 := recoverSystem(t, ds, sys2, pr, v, harness.RecoverOptions{})
	if rep3.Outcome != harness.RecoverRolledBack {
		t.Fatalf("second recovery outcome = %v, want RecoverRolledBack", rep3.Outcome)
	}
	if len(rep3.OrphansDropped) != 0 {
		t.Fatalf("second recovery dropped %v again", rep3.OrphansDropped)
	}
	mustVerify(t, sys3.System)
}

// TestRecoverNoneAndValidation: a finished journal (and an empty one)
// recover to a no-op, a missing recommendation is an error for an
// in-flight journal, and a recommendation that does not match the
// journaled migration is rejected.
func TestRecoverNoneAndValidation(t *testing.T) {
	ds, clean, pr, v, crashed := crashRun(t, nil)
	if crashed {
		t.Fatal("clean run crashed")
	}
	sys2, rep := recoverSystem(t, ds, clean, pr, v, harness.RecoverOptions{})
	if rep.Outcome != harness.RecoverNone {
		t.Fatalf("outcome over a finished journal = %v, want RecoverNone", rep.Outcome)
	}
	mustVerify(t, sys2.System)

	// Empty journal: nothing to do.
	empty := restartOver(t, "empty", clean.System, nil, journal.New(journal.Options{}))
	rep2, err := empty.Recover(ds, nil, nil, harness.RecoverOptions{})
	if err != nil || rep2.Outcome != harness.RecoverNone {
		t.Fatalf("empty journal: outcome %v, err %v", rep2, err)
	}

	// In-flight journal, no recommendation: refused.
	ds3, sys3, pr3, _, crashed := crashRun(t, midBackfill)
	if !crashed {
		t.Fatal("armed crash never fired")
	}
	j2, recs, err := journal.Open(sys3.journal.Durable(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys4 := restartOver(t, "norec", sys3.System, nil, j2)
	if _, err := sys4.Recover(ds3, recs, nil, harness.RecoverOptions{}); err == nil {
		t.Fatal("recover of an in-flight migration without a recommendation succeeded")
	}

	// Mismatched recommendation: build set differs from the journal.
	bad := &search.PhaseRecommendation{Rec: pr3.Rec, Build: pr3.Build[:len(pr3.Build)-1]}
	if _, err := sys4.Recover(ds3, recs, bad, harness.RecoverOptions{}); err == nil {
		t.Fatal("recover with a mismatched build set succeeded")
	}
}

// TestReplicatedCrashRecovery: crashes injected inside the replica
// coordinator's hinted-handoff and read-repair paths kill the process
// mid-statement; a restarted incarnation (fresh coordinator, hints
// lost) still holds every acknowledged write on at least one replica.
func TestReplicatedCrashRecovery(t *testing.T) {
	for _, site := range []string{faults.SiteHandoff, faults.SiteReadRepair} {
		f := newReplFixture(t)
		quorum := &harness.ReplicationConfig{Read: executor.Quorum, Write: executor.Quorum}
		v := verify.New()
		cr := faults.NewCrashes()
		sys := f.system(t, harness.Config{
			Name: "repl", Replication: quorum, NodeWeather: &harness.NodeWeather{Seed: 1},
			Verifier: v, Crashes: cr,
		})

		// Queue hints: a replica of the written partition goes down, a
		// write misses it and is acknowledged at QUORUM anyway.
		_, replicas := queryReplicas(t, sys, f.rec)
		if err := sys.MarkNodeDown(replicas[0]); err != nil {
			t.Fatal(err)
		}
		wp := executor.Params{"id": int64(500), "city": "c1", "name": "crashme"}
		if _, err := sys.ExecStatement(f.insert, wp); err != nil {
			t.Fatalf("%s: write with a replica down: %v", site, err)
		}
		if sys.Robustness().Replica.HintsQueued == 0 {
			t.Fatalf("%s: no hints queued", site)
		}
		if err := sys.MarkNodeUp(replicas[0]); err != nil {
			t.Fatal(err)
		}

		// Arm the crash and touch the partition until the site fires:
		// another write replays hints (handoff), a read finds the stale
		// replica (read repair).
		cr.Arm(site, 0)
		var crashErr error
		for i := 0; i < 10 && crashErr == nil; i++ {
			var err error
			if site == faults.SiteHandoff {
				_, err = sys.ExecStatement(f.insert,
					executor.Params{"id": int64(600 + i), "city": "c1", "name": "again"})
			} else {
				_, err = sys.ExecStatement(f.query, f.params)
			}
			if faults.IsCrash(err) {
				crashErr = err
			} else if err != nil {
				t.Fatalf("%s: non-crash error: %v", site, err)
			}
		}
		if crashErr == nil {
			t.Fatalf("%s: armed crash never fired", site)
		}

		// Restart over the surviving cluster: fresh coordinator (hints
		// lost), same verifier, empty journal — recovery is a no-op and
		// every acknowledged write must still be durable somewhere.
		sys2, err := harness.New(harness.Config{
			Name: "restarted", Rec: f.rec, Latency: cost.DefaultParams(), Repl: sys.Repl,
			Replication: quorum, Verifier: v, Journal: journal.New(journal.Options{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys2.Recover(f.ds, nil, nil, harness.RecoverOptions{})
		if err != nil || rep.Outcome != harness.RecoverNone {
			t.Fatalf("%s: recover: outcome %v, err %v", site, rep, err)
		}
		mustVerify(t, sys2)
		if _, err := sys2.ExecStatement(f.query, f.params); err != nil {
			t.Fatalf("%s: query after restart: %v", site, err)
		}
	}
}

// TestDrainExactFaultBudgetBoundary pins the budget's off-by-one
// contract at the harness level: exactly FaultBudget external faults
// are tolerated and the migration completes; one more aborts it.
func TestDrainExactFaultBudgetBoundary(t *testing.T) {
	const budget = 3
	for _, tc := range []struct {
		name   string
		faults int
		abort  bool
	}{
		{"at-budget", budget, false},
		{"over-budget", budget + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, _, rec, sys, _ := liveFixture(t)
			ctrl, err := sys.StartLiveMigration(ds,
				&search.PhaseRecommendation{Rec: rec, Build: rec.Schema.Indexes()},
				migrate.LiveOptions{ChunkRecords: 40, FaultBudget: budget, Params: migrate.DefaultCostParams()})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.faults; i++ {
				ctrl.NoteExternalFault()
			}
			st, err := sys.DrainLiveMigration(0)
			if tc.abort {
				if !errors.Is(err, migrate.ErrAborted) || st != migrate.StateAborted {
					t.Fatalf("state %v, err %v, want abort", st, err)
				}
				if sys.Robustness().Migration.Aborted != 1 {
					t.Fatal("abort not counted")
				}
			} else {
				if err != nil || st != migrate.StateDone {
					t.Fatalf("state %v, err %v, want clean completion", st, err)
				}
				if sys.Rec() != rec {
					t.Fatal("completed migration did not adopt the recommendation")
				}
			}
		})
	}
}

// TestDrainStallAborts: under an unlimited fault budget with a
// permanently failing backfill put, DrainLiveMigration must not spin —
// it aborts the stalled migration and surfaces ErrAborted instead of
// burning its whole step budget on no-progress steps.
func TestDrainStallAborts(t *testing.T) {
	ds, _, _, sys, _ := liveFixture(t, familyWeather(7, faults.Profile{}))
	inj := sys.Faults()

	// Build one family and make every operation on it fail permanently.
	var added []*schema.Index
	target := schema.NewSchema()
	for _, e := range ds.Graph.Entities() {
		x := schema.New(model.NewPath(e), []*model.Attribute{e.Key()}, nil, e.NonKeyAttributes())
		if target.Lookup(x) == nil {
			added = append(added, target.Add(x))
			break
		}
	}
	if len(added) == 0 {
		t.Fatal("fixture: no family to add")
	}
	for _, x := range added {
		inj.MarkDown(x.Name)
	}
	targetRec := &search.Recommendation{Schema: target}
	_, err := sys.StartLiveMigration(ds, &search.PhaseRecommendation{Rec: targetRec, Build: added},
		migrate.LiveOptions{ChunkRecords: 8, FaultBudget: -1, Params: migrate.DefaultCostParams()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.DrainLiveMigration(1000)
	if !errors.Is(err, migrate.ErrAborted) || st != migrate.StateAborted {
		t.Fatalf("state %v, err %v, want stall abort", st, err)
	}
	if sys.LiveActive() {
		t.Fatal("stalled migration still registered as active")
	}
	for _, x := range added {
		if _, err := sys.Store.Def(x.Name); err == nil {
			t.Errorf("stall abort left family %s installed", x.Name)
		}
	}
}

// TestAbortStopsDualWriteForwardingRace pins the OnAbort hook: a direct
// ctrl.Abort() — not routed through the harness — must stop dual-write
// forwarding atomically with the rollback even while transactions
// execute concurrently. Without the hook the harness kept forwarding
// writes to the dropped families after the abort. Run under -race in CI.
func TestAbortStopsDualWriteForwardingRace(t *testing.T) {
	ds, txns, rec, sys, cfg := liveFixture(t)
	ctrl, err := sys.StartLiveMigration(ds,
		&search.PhaseRecommendation{Rec: rec, Build: rec.Schema.Indexes()},
		migrate.LiveOptions{ChunkRecords: 10, Params: migrate.DefaultCostParams()})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ps := rubis.NewParamSource(cfg, 9)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			txn := txns[i%len(txns)]
			// Pre-cutover the empty schema serves no queries; writes
			// forward to the families under construction. Errors are
			// irrelevant here — the race with Abort is the test.
			_, _ = sys.ExecTransaction(txn.Statements, ps.Params(txn.Name))
		}
	}()

	// A few backfill steps so forwarding is live, then abort directly on
	// the controller while the writer goroutine races it.
	for i := 0; i < 5; i++ {
		if _, err := sys.LiveStep(); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.Abort()
	close(stop)
	wg.Wait()

	if sys.LiveActive() {
		t.Fatal("aborted migration still registered as active")
	}
	for _, x := range rec.Schema.Indexes() {
		if _, err := sys.Store.Def(x.Name); err == nil {
			t.Errorf("family %s survived the direct abort", x.Name)
		}
	}
	r := sys.Robustness().Migration
	if r.Aborted != 1 {
		t.Fatalf("migration stats = %+v, want exactly one abort", r)
	}
	// With the system quiet, forwarding must be provably off: more write
	// traffic adds no dual-writes.
	before := sys.Robustness().Migration.DualWrites
	ps := rubis.NewParamSource(cfg, 3)
	for i := 0; i < 50; i++ {
		txn := txns[i%len(txns)]
		_, _ = sys.ExecTransaction(txn.Statements, ps.Params(txn.Name))
	}
	if after := sys.Robustness().Migration.DualWrites; after != before {
		t.Fatalf("dual-writes still flowing after abort: %d -> %d", before, after)
	}
}
