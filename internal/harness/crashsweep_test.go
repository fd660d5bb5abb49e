package harness_test

import (
	"fmt"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/hotel"
	"nose/internal/journal"
	"nose/internal/migrate"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/verify"
	"nose/internal/workload"
)

// sweepFixture is a hand-built hotel dataset plus two advised
// recommendations: A serves the paper's Fig. 3 query and the
// reservation insert; B adds the Fig. 6 prefix query, so the A -> B
// migration builds at least one new family under live traffic.
type sweepFixture struct {
	ds          *backend.Dataset
	recA, recB  *search.Recommendation
	build, drop []*schema.Index
	query       workload.Statement
	insert      workload.Statement
	queryParams executor.Params
	liveOpts    migrate.LiveOptions
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func newSweepFixture(t *testing.T, workers int) *sweepFixture {
	t.Helper()
	g := hotel.Graph()
	ds := backend.NewDataset(g)

	hotelE := g.MustEntity("Hotel")
	room := g.MustEntity("Room")
	guest := g.MustEntity("Guest")
	res := g.MustEntity("Reservation")
	const (
		nHotels = 4
		nRooms  = 12
		nGuests = 8
		nRes    = 24
	)
	for i := 0; i < nHotels; i++ {
		must(t, ds.AddEntity(hotelE, map[string]backend.Value{
			"HotelID":   i,
			"HotelName": fmt.Sprintf("Hotel%d", i),
			"HotelCity": fmt.Sprintf("c%d", i%2),
		}))
	}
	for i := 0; i < nRooms; i++ {
		must(t, ds.AddEntity(room, map[string]backend.Value{
			"RoomID":   i,
			"RoomRate": float64(50 + (i%5)*20),
		}))
		must(t, ds.Connect(hotelE.Edge("Rooms"), int64(i%nHotels), int64(i)))
	}
	for i := 0; i < nGuests; i++ {
		must(t, ds.AddEntity(guest, map[string]backend.Value{
			"GuestID":    i,
			"GuestName":  fmt.Sprintf("Guest%d", i),
			"GuestEmail": fmt.Sprintf("g%d@example.com", i),
		}))
	}
	for i := 0; i < nRes; i++ {
		must(t, ds.AddEntity(res, map[string]backend.Value{
			"ResID": i, "ResEndDate": int64(1_600_000_000 + i*86_400),
		}))
		must(t, ds.Connect(room.Edge("Reservations"), int64(i%nRooms), int64(i)))
		must(t, ds.Connect(guest.Edge("Reservations"), int64(i%nGuests), int64(i)))
	}

	q1 := workload.MustParseQuery(g, hotel.ExampleQuery)
	q1.Label = "GuestsByCity"
	ins := workload.MustParse(g, hotel.UpdateStatements[0])
	wA := workload.New(g)
	wA.Add(q1, 1)
	wA.Add(ins, 0.5)
	recA, err := search.Advise(wA, search.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}

	q2 := workload.MustParseQuery(g, hotel.PrefixQuery)
	q2.Label = "RoomsByCity"
	wB := workload.New(g)
	wB.Add(q1, 1)
	wB.Add(q2, 1)
	wB.Add(ins, 0.5)
	recB, err := search.Advise(wB, search.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}

	// Align B's index names onto A's before diffing, so the migration's
	// build/drop sets carry the names every sweep iteration will see.
	recB.Schema.AlignTo(recA.Schema)
	build, drop := migrate.Diff(recA.Schema, recB.Schema)
	if len(build) == 0 {
		t.Fatal("fixture migration builds nothing — the sweep would be vacuous")
	}

	return &sweepFixture{
		ds:          ds,
		recA:        recA,
		recB:        recB,
		build:       build,
		drop:        drop,
		query:       q1,
		insert:      ins,
		queryParams: executor.Params{"city": "c0", "rate": 60.0},
		liveOpts:    migrate.LiveOptions{ChunkRecords: 5, Params: migrate.DefaultCostParams()},
	}
}

// insertParams yields a unique reservation insert for step i.
func (f *sweepFixture) insertParams(i int) executor.Params {
	return executor.Params{
		"rid":    int64(10_000 + i),
		"date":   int64(1_700_000_000 + i*86_400),
		"gid":    int64(i % 8),
		"roomid": int64(i % 12),
	}
}

// runSweep executes one A -> B live migration with the SiteJournal
// crash armed at append index armAt (negative: never), interleaving a
// query and an insert per step. On a crash it restarts over the
// surviving store, recovers from the journal, finishes whatever
// recovery decided, and runs the invariant check. It returns the
// journal append count of the run (pre-crash for crashed runs) and the
// recovery outcome (RecoverNone for clean runs).
func runSweep(t *testing.T, f *sweepFixture, armAt int64) (appends int, outcome harness.RecoverOutcome) {
	t.Helper()
	v := verify.New()
	cr := faults.NewCrashes()
	if armAt >= 0 {
		cr.Arm(faults.SiteJournal, armAt)
	}
	j := journal.New(journal.Options{Crashes: cr})
	sys, err := harness.New(harness.Config{
		Name: "sweep", Rec: f.recA, Latency: cost.DefaultParams(), Dataset: f.ds,
		Verifier: v, Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}

	pr := &search.PhaseRecommendation{Rec: f.recB, Build: f.build, Drop: f.drop}
	crashed := false
	_, err = sys.StartLiveMigration(f.ds, pr, f.liveOpts)
	if err != nil {
		if !faults.IsCrash(err) {
			t.Fatalf("arm %d: start: %v", armAt, err)
		}
		crashed = true
	}
	for i := 0; !crashed && sys.LiveActive(); i++ {
		if i > 10_000 {
			t.Fatalf("arm %d: migration never finished or crashed", armAt)
		}
		_, err := sys.LiveStep()
		if faults.IsCrash(err) {
			crashed = true
			break
		}
		if err != nil {
			t.Fatalf("arm %d: step %d: %v", armAt, i, err)
		}
		if _, err := sys.ExecStatement(f.query, f.queryParams); err != nil {
			t.Fatalf("arm %d: query at step %d: %v", armAt, i, err)
		}
		if _, err := sys.ExecStatement(f.insert, f.insertParams(i)); err != nil {
			t.Fatalf("arm %d: insert at step %d: %v", armAt, i, err)
		}
	}
	if !crashed {
		if armAt >= 0 {
			t.Fatalf("arm %d: armed crash never fired", armAt)
		}
		mustVerify(t, sys)
		return j.Records(), harness.RecoverNone
	}

	// Restart: reopen the durable journal, declare the surviving store
	// and the cross-crash verifier, replay.
	j2, recs, err := journal.Open(j.Durable(), journal.Options{})
	if err != nil {
		t.Fatalf("arm %d: reopen journal: %v", armAt, err)
	}
	sys2 := restartOver(t, "recovered", sys, v, j2)
	rep, err := sys2.Recover(f.ds, recs, pr, harness.RecoverOptions{Live: f.liveOpts})
	if err != nil {
		t.Fatalf("arm %d: recover: %v", armAt, err)
	}
	if rep.Outcome == harness.RecoverResumed {
		if st, err := sys2.DrainLiveMigration(0); err != nil || st != migrate.StateDone {
			t.Fatalf("arm %d: drain resumed migration: state %v, err %v", armAt, st, err)
		}
	}
	rep2, err := sys2.VerifyCheck()
	if err != nil {
		t.Fatalf("arm %d: verify: %v", armAt, err)
	}
	if !rep2.OK() {
		t.Fatalf("arm %d: invariants violated after recovery (outcome %v):\n%s",
			armAt, rep.Outcome, rep2.Format())
	}
	// Whatever recovery decided, the recovered system must serve the
	// fixture query again.
	if _, err := sys2.ExecStatement(f.query, f.queryParams); err != nil {
		t.Fatalf("arm %d: query after recovery: %v", armAt, err)
	}
	return len(recs), rep.Outcome
}

// TestCrashSweepEveryJournalIndex is the exhaustive crash-point sweep:
// a clean run counts the migration's journal appends, then the
// migration is re-run once per append index with a crash armed exactly
// there. Every crashed run must recover to a verifier-clean state. The
// sweep runs with the advisor at one worker and at four — the advised
// schemas, and therefore the whole crash/recovery episode, must be
// identical whatever the search parallelism.
func TestCrashSweepEveryJournalIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			f := newSweepFixture(t, workers)
			total, _ := runSweep(t, f, -1)
			if total < 6 {
				t.Fatalf("clean run journaled only %d records — sweep would prove little", total)
			}
			seen := map[harness.RecoverOutcome]int{}
			for k := 0; k < total; k++ {
				_, outcome := runSweep(t, f, int64(k))
				seen[outcome]++
			}
			// The sweep must exercise both recovery regimes: resume from
			// the watermark (early crashes) and roll-forward (crashes at
			// or past the cutover records).
			if seen[harness.RecoverResumed] == 0 || seen[harness.RecoverCompleted] == 0 {
				t.Fatalf("sweep outcome histogram %v missed a recovery regime", seen)
			}
			t.Logf("swept %d crash points: %d resumed, %d rolled forward, %d no-op, %d rolled back",
				total, seen[harness.RecoverResumed], seen[harness.RecoverCompleted],
				seen[harness.RecoverNone], seen[harness.RecoverRolledBack])
		})
	}
}
