package migrate_test

import (
	"errors"
	"reflect"
	"testing"

	"nose/internal/backend"
	"nose/internal/baselines"
	"nose/internal/cost"
	"nose/internal/hotel"
	"nose/internal/migrate"
	"nose/internal/rubis"
	"nose/internal/schema"
)

// flakyStore wraps a real store and fails every Write after the first
// failAfter successes — an injected mid-build failure for the rollback
// regression test.
type flakyStore struct {
	*backend.Store
	failAfter int
	puts      int
}

var errInjectedPut = errors.New("injected put failure")

func (f *flakyStore) Write(name string, partition, clustering, values []backend.Value) (float64, error) {
	if f.puts++; f.puts > f.failAfter {
		return 0, errInjectedPut
	}
	return f.Store.Write(name, partition, clustering, values)
}

// readable reports whether the family exists in the store: every
// family in these tests has a one-column partition key, so a
// one-value Get succeeds iff the family is installed.
func readable(s *backend.Store, name string) bool {
	_, err := s.Get(name, backend.GetRequest{Partition: []backend.Value{"City0"}})
	return err == nil
}

// TestApplyDropsPartialFamilyOnFailure: a Put failing mid-backfill
// must not leave the half-built family — or any family this migration
// already installed — behind.
func TestApplyDropsPartialFamilyOnFailure(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	sch := schema.NewSchema()
	view := sch.Add(guestView(t, g))
	pk := sch.Add(guestPK(t, g))

	// The view materializes 5 records; failing on the 7th put dies in
	// the middle of the second family's build.
	inner := backend.NewStore(cost.DefaultParams())
	s := &flakyStore{Store: inner, failAfter: 6}
	_, err := apply(ds, s, []*schema.Index{view, pk}, nil)
	if !errors.Is(err, errInjectedPut) {
		t.Fatalf("migration error = %v, want the injected put failure", err)
	}
	if readable(inner, pk.Name) {
		t.Errorf("partially built family %s still installed after the failed migration", pk.Name)
	}
	if readable(inner, view.Name) {
		t.Errorf("family %s from the failed migration still installed", view.Name)
	}

	// Failing inside the very first family must drop it too.
	inner = backend.NewStore(cost.DefaultParams())
	s = &flakyStore{Store: inner, failAfter: 2}
	if _, err := apply(ds, s, []*schema.Index{view}, nil); !errors.Is(err, errInjectedPut) {
		t.Fatalf("migration error = %v, want the injected put failure", err)
	}
	if readable(inner, view.Name) {
		t.Errorf("partially built family %s still installed", view.Name)
	}
}

// storePut adapts a store's Write to the live controller's PutFunc.
func storePut(s *backend.Store) migrate.PutFunc {
	return s.Write
}

// TestLiveMigrationWalksStateMachine drives a healthy migration end to
// end and pins the state sequence, chunking, and the final store
// contents.
func TestLiveMigrationWalksStateMachine(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	view := sch.Add(guestView(t, g))
	pk := sch.Add(guestPK(t, g))

	// Pre-install the family the migration will retire.
	old := schema.NewSchema()
	oldPK := old.Add(guestPK(t, g))
	oldPK.Name = "old_guest_pk"
	if err := ds.Install(s, oldPK); err != nil {
		t.Fatal(err)
	}

	l, err := migrate.StartLive(ds, s, []*schema.Index{view, pk}, []*schema.Index{oldPK},
		storePut(s), migrate.LiveOptions{ChunkRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.State(); got != migrate.StateDualWrite {
		t.Fatalf("state after StartLive = %v, want dual-write", got)
	}
	if b := l.Building(); len(b) != 2 {
		t.Fatalf("Building() = %v, want the two new families", b)
	}
	// New families exist (and can receive dual-writes) before backfill.
	if !readable(s, view.Name) {
		t.Fatal("new family not created at StartLive")
	}

	var states []migrate.State
	var copied int
	for i := 0; l.State() != migrate.StateDone; i++ {
		if i > 20 {
			t.Fatal("migration did not finish in 20 steps")
		}
		sr, err := l.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Copied > 3 {
			t.Fatalf("step copied %d records, chunk bound is 3", sr.Copied)
		}
		copied += sr.Copied
		if sr.Transitioned {
			states = append(states, sr.State)
		}
	}
	want := []migrate.State{migrate.StateBackfill, migrate.StateCutover, migrate.StateDrop, migrate.StateDone}
	if len(states) != len(want) {
		t.Fatalf("transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", states, want)
		}
	}
	// 5 view records + 3 pk records.
	if copied != 8 {
		t.Errorf("copied %d records, want 8", copied)
	}
	res := l.Result()
	if len(res.Built) != 2 || res.Records != 8 || res.SimMillis <= 0 {
		t.Errorf("Result = %+v", res)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != "old_guest_pk" {
		t.Errorf("Dropped = %v, want [old_guest_pk]", res.Dropped)
	}
	if readable(s, "old_guest_pk") {
		t.Error("retired family still installed after drop phase")
	}
	if got, err := s.Get(view.Name, backend.GetRequest{Partition: []backend.Value{"City0"}}); err != nil || len(got.Records) == 0 {
		t.Errorf("backfilled family unreadable: %v", err)
	}
	if b := l.Building(); b != nil {
		t.Errorf("Building() after done = %v, want nil", b)
	}
}

// TestLiveMigrationRetriesFailedRecord: a put failure must not advance
// the cursor — the record lands on the next step and the final count
// is exact.
func TestLiveMigrationRetriesFailedRecord(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	pk := sch.Add(guestPK(t, g))

	fails := 1
	put := func(cf string, partition, clustering, values []backend.Value) (float64, error) {
		if fails > 0 {
			fails--
			return 0.5, errInjectedPut // failed attempt still costs time
		}
		return s.Write(cf, partition, clustering, values)
	}
	l, err := migrate.StartLive(ds, s, []*schema.Index{pk}, nil, put,
		migrate.LiveOptions{ChunkRecords: 64, FaultBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(); err != nil { // dual-write settle
		t.Fatal(err)
	}
	sr, err := l.Step() // chunk ends early at the failure
	if err != nil {
		t.Fatal(err)
	}
	if sr.Faults != 1 || sr.Copied != 0 {
		t.Fatalf("first chunk = %+v, want 1 fault and 0 copied", sr)
	}
	sr, err = l.Step()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Copied != 3 { // all 3 guests, including the retried first record
		t.Fatalf("retry chunk copied %d, want 3", sr.Copied)
	}
	if p := l.Progress(); p.CopiedRecords != 3 || p.Faults != 1 {
		t.Fatalf("progress = %+v", p)
	}
}

// TestLiveMigrationAbortsOverBudget: put failures beyond the budget
// roll the migration back completely — created families dropped, the
// old family untouched, ErrAborted returned now and forever.
func TestLiveMigrationAbortsOverBudget(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	view := sch.Add(guestView(t, g))

	old := schema.NewSchema()
	oldPK := old.Add(guestPK(t, g))
	oldPK.Name = "old_guest_pk"
	if err := ds.Install(s, oldPK); err != nil {
		t.Fatal(err)
	}

	put := func(cf string, partition, clustering, values []backend.Value) (float64, error) {
		return 0.5, errInjectedPut
	}
	l, err := migrate.StartLive(ds, s, []*schema.Index{view}, []*schema.Index{oldPK}, put,
		migrate.LiveOptions{ChunkRecords: 4, FaultBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	var last migrate.StepResult
	var lastErr error
	for i := 0; i < 10 && lastErr == nil; i++ {
		last, lastErr = l.Step()
	}
	if !errors.Is(lastErr, migrate.ErrAborted) {
		t.Fatalf("over-budget migration returned %v, want ErrAborted", lastErr)
	}
	if !last.Transitioned || last.State != migrate.StateAborted {
		t.Errorf("aborting step = %+v, want a transition to aborted", last)
	}
	if l.State() != migrate.StateAborted {
		t.Fatalf("state = %v, want aborted", l.State())
	}
	if readable(s, view.Name) {
		t.Error("aborted migration left its half-built family installed")
	}
	if !readable(s, "old_guest_pk") {
		t.Error("aborted migration touched the old serving family")
	}
	if res := l.Result(); len(res.Built) != 0 || len(res.Dropped) != 0 {
		t.Errorf("aborted Result = %+v, want nothing built or dropped", res)
	}
	if res := l.Result(); res.SimMillis <= 0 {
		t.Error("aborted migration charged no simulated time for its failed puts")
	}
	// Aborted is terminal.
	if _, err := l.Step(); !errors.Is(err, migrate.ErrAborted) {
		t.Errorf("Step after abort = %v, want ErrAborted", err)
	}
	if p := l.Progress(); p.Faults <= p.Budget {
		t.Errorf("progress = %+v, want faults over budget", p)
	}
}

// TestLiveMigrationExternalFaultsCountAgainstBudget: dual-write
// failures reported via NoteExternalFault abort the migration at the
// next Step once the budget is breached.
func TestLiveMigrationExternalFaultsCountAgainstBudget(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	pk := sch.Add(guestPK(t, g))

	l, err := migrate.StartLive(ds, s, []*schema.Index{pk}, nil, storePut(s),
		migrate.LiveOptions{FaultBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l.NoteExternalFault()
	}
	if _, err := l.Step(); !errors.Is(err, migrate.ErrAborted) {
		t.Fatalf("Step = %v, want ErrAborted from external faults", err)
	}
	if readable(s, pk.Name) {
		t.Error("aborted migration left its family installed")
	}
}

// TestLiveMigrationCannotAbortAfterCutover: once every record has
// landed the migration is past its point of no return — budget
// breaches and explicit Abort no longer roll it back, because the
// caller may already be serving from the new families.
func TestLiveMigrationCannotAbortAfterCutover(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	pk := sch.Add(guestPK(t, g))

	l, err := migrate.StartLive(ds, s, []*schema.Index{pk}, nil, storePut(s),
		migrate.LiveOptions{FaultBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	for l.State() != migrate.StateCutover {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		l.NoteExternalFault()
	}
	l.Abort()
	if l.State() != migrate.StateCutover {
		t.Fatalf("Abort after cutover changed state to %v", l.State())
	}
	for l.State() != migrate.StateDone {
		if _, err := l.Step(); err != nil {
			t.Fatalf("post-cutover Step = %v, want completion despite over-budget faults", err)
		}
	}
	if !readable(s, pk.Name) {
		t.Error("family missing after post-cutover completion")
	}
}

// TestInstallAndBackfillAgree: installing a family straight from the
// dataset and backfilling it through the live controller read the same
// materializer, so for every RUBiS expert family the two stores must
// end with the same statistics and, partition by partition, the same
// records.
func TestInstallAndBackfillAgree(t *testing.T) {
	ds, err := rubis.Generate(rubis.Config{Users: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := baselines.ExpertRUBiS(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.NewSchema()
	for _, x := range pool.Indexes() {
		sch.Add(x)
	}
	families := sch.Indexes()

	installed := backend.NewStore(cost.DefaultParams())
	for _, x := range families {
		if err := ds.Install(installed, x); err != nil {
			t.Fatal(err)
		}
	}
	backfilled := backend.NewStore(cost.DefaultParams())
	l, err := migrate.StartLive(ds, backfilled, families, nil, storePut(backfilled),
		migrate.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for l.State() != migrate.StateDone {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}

	records := 0
	for _, x := range families {
		want, err := installed.CFStats(x.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := backfilled.CFStats(x.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || want.Records == 0 {
			t.Errorf("%s: backfilled stats %+v, installed %+v", x.Name, got, want)
		}
		records += want.Records
		err = ds.ForEachRecord(x, func(partition, _, _ []backend.Value) error {
			req := backend.GetRequest{Partition: partition}
			a, err := installed.Get(x.Name, req)
			if err != nil {
				return err
			}
			b, err := backfilled.Get(x.Name, req)
			if err != nil {
				return err
			}
			if len(a.Records) == 0 || !reflect.DeepEqual(a.Records, b.Records) {
				t.Errorf("%s partition %v: installed %v, backfilled %v", x.Name, partition, a.Records, b.Records)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if res := l.Result(); res.Records < records {
		t.Errorf("controller reports %d records copied, stores hold %d", res.Records, records)
	}
}
