package experiments

import (
	"errors"
	"fmt"
	"strings"

	"nose/internal/backend"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/hotel"
	"nose/internal/journal"
	"nose/internal/migrate"
	"nose/internal/obs"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/verify"
	"nose/internal/workload"
)

// CrashChaosConfig parameterizes the crash-recovery chaos sweep: a
// hotel-booking A -> B live migration is crashed at every journal
// append index, per (consistency level, node fault rate) cell of a
// replicated cluster, and recovered from the durable journal; every
// run must end in an invariant-verifier pass. A second sweep crashes
// the replica coordinator inside its hinted-handoff and read-repair
// paths and restarts over the surviving cluster.
type CrashChaosConfig struct {
	// Rates is the node fault rate sweep; empty means
	// DefaultCrashChaosRates.
	Rates []float64
	// Nodes and RF shape the cluster; zero means the harness defaults
	// (5 nodes, RF 3).
	Nodes, RF int
	// Seed seeds the node fault domains; the same seed reproduces the
	// whole sweep bit for bit at any advisor worker count.
	Seed int64
	// Advisor tunes the schema advisor for the two recommendations.
	Advisor search.Options
	// Obs, when set, collects the run's metrics: the advisor's stage
	// counters and each system's merged registry.
	Obs *obs.Registry
}

// crashChaosChunkRecords bounds records per backfill step — small, so
// the sweep has many distinct crash points.
const crashChaosChunkRecords = 5

// DefaultCrashChaosRates sweeps a healthy cluster and one with flaky
// replica operations, so crashes land both in calm and bad weather.
var DefaultCrashChaosRates = []float64{0, 0.02}

// CrashChaosCell is one (consistency level, node fault rate) journal
// crash sweep: a clean migration counts the journal appends, then one
// migration per append index is crashed exactly there and recovered.
type CrashChaosCell struct {
	// JournalRecords is the clean run's journal append count — the
	// number of crash points swept.
	JournalRecords int
	// CrashRuns counts the crashed-and-recovered migrations (one per
	// append index); Verified the runs whose invariant check passed
	// (the sweep errors out unless Verified == CrashRuns+1, clean run
	// included).
	CrashRuns, Verified int
	// Resumed, Completed, RolledBack and None partition the crash runs
	// by recovery outcome.
	Resumed, Completed, RolledBack, None int
	// RecopiedRecords totals the backfill records recovery re-copied
	// (snapshot size minus durable watermark) across resumed runs —
	// the data-movement cost of crashing.
	RecopiedRecords int
	// RecoverySimMillis totals the simulated time recovery's own
	// journal appends consumed across the cell's runs.
	RecoverySimMillis float64
	// Unavailable counts client statements lost to ErrUnavailable
	// while the sweep's migrations ran (nonzero only in bad weather).
	Unavailable int64
}

// CrashChaosRow is one node fault rate's cells, keyed by consistency
// level name (ONE/QUORUM/ALL).
type CrashChaosRow struct {
	// Rate is the injected node fault rate.
	Rate float64
	// Cells maps consistency level name to its sweep.
	Cells map[string]CrashChaosCell
}

// CrashChaosSiteCell is one coordinator crash-restart episode: hints
// are queued against a downed replica, the crash is armed inside the
// coordinator's handoff or read-repair path, and after it fires the
// cluster restarts with a fresh coordinator (in-memory hints lost).
type CrashChaosSiteCell struct {
	// Site is the armed crash site (faults.SiteHandoff or
	// faults.SiteReadRepair).
	Site string
	// Rate is the background node fault rate.
	Rate float64
	// HintsQueued is the coordinator's hint count when the crash was
	// armed; OpsToCrash how many statements ran before it fired.
	HintsQueued int64
	OpsToCrash  int
	// Verified reports the post-restart invariant check passed (the
	// sweep errors out otherwise).
	Verified bool
}

// CrashChaosResult is the full chaos sweep.
type CrashChaosResult struct {
	// Levels orders the swept consistency levels; Nodes and RF record
	// the cluster shape; ChunkRecords the backfill chunk bound.
	Levels       []executor.Consistency
	Nodes, RF    int
	ChunkRecords int
	// Rows has one entry per node fault rate, in Rates order.
	Rows []CrashChaosRow
	// Sites holds the coordinator crash-restart episodes, handoff and
	// read repair per fault rate, all at QUORUM (the level where both
	// paths are deterministically exercisable: ONE never repairs on
	// read, ALL never acknowledges past a downed replica).
	Sites []CrashChaosSiteCell
}

// chaosFixture is the sweep's shared, fault-independent half: the
// hotel dataset and the two advised recommendations whose diff is the
// migration every run crashes.
type chaosFixture struct {
	ds          *backend.Dataset
	recA, recB  *search.Recommendation
	build, drop []*schema.Index
	query       workload.Statement
	insert      workload.Statement
	queryParams executor.Params
	// queryCF is the family recA's plan reads for the city query —
	// the partition whose replicas the site sweep makes stale.
	queryCF string
}

// buildChaosFixture hand-builds the hotel dataset (Fig. 3's running
// example) and advises schema A (city query + reservation insert) and
// schema B (adding the prefix query), aligning B's family names onto
// A's so the migration's journal records are stable across runs.
func buildChaosFixture(advisor search.Options) (*chaosFixture, error) {
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
		if err := ds.AddEntity(hotelE, map[string]backend.Value{
			"HotelID":   i,
			"HotelName": fmt.Sprintf("Hotel%d", i),
			"HotelCity": fmt.Sprintf("c%d", i%2),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nRooms; i++ {
		if err := ds.AddEntity(room, map[string]backend.Value{
			"RoomID":   i,
			"RoomRate": float64(50 + (i%5)*20),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(hotelE.Edge("Rooms"), int64(i%nHotels), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nGuests; i++ {
		if err := ds.AddEntity(guest, map[string]backend.Value{
			"GuestID":    i,
			"GuestName":  fmt.Sprintf("Guest%d", i),
			"GuestEmail": fmt.Sprintf("g%d@example.com", i),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nRes; i++ {
		if err := ds.AddEntity(res, map[string]backend.Value{
			"ResID": i, "ResEndDate": int64(1_600_000_000 + i*86_400),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(room.Edge("Reservations"), int64(i%nRooms), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(guest.Edge("Reservations"), int64(i%nGuests), int64(i)); err != nil {
			return nil, err
		}
	}

	q1 := workload.MustParseQuery(g, hotel.ExampleQuery)
	q1.Label = "GuestsByCity"
	ins := workload.MustParse(g, hotel.UpdateStatements[0])
	wA := workload.New(g)
	wA.Add(q1, 1)
	wA.Add(ins, 0.5)
	recA, err := search.Advise(wA, advisor)
	if err != nil {
		return nil, fmt.Errorf("experiments: crashchaos: advise A: %w", err)
	}

	q2 := workload.MustParseQuery(g, hotel.PrefixQuery)
	q2.Label = "RoomsByCity"
	wB := workload.New(g)
	wB.Add(q1, 1)
	wB.Add(q2, 1)
	wB.Add(ins, 0.5)
	recB, err := search.Advise(wB, advisor)
	if err != nil {
		return nil, fmt.Errorf("experiments: crashchaos: advise B: %w", err)
	}

	recB.Schema.AlignTo(recA.Schema)
	build, drop := migrate.Diff(recA.Schema, recB.Schema)
	if len(build) == 0 {
		return nil, errors.New("experiments: crashchaos: A -> B migration builds nothing; the sweep would be vacuous")
	}
	if len(recA.Queries) == 0 || len(recA.Queries[0].Plan.Indexes()) == 0 {
		return nil, errors.New("experiments: crashchaos: no plan for the city query")
	}
	return &chaosFixture{
		ds:          ds,
		recA:        recA,
		recB:        recB,
		build:       build,
		drop:        drop,
		query:       q1,
		insert:      ins,
		queryParams: executor.Params{"city": "c0", "rate": 60.0},
		queryCF:     recA.Queries[0].Plan.Indexes()[0].Name,
	}, nil
}

// insertParams yields a distinct reservation insert for step i; room 0
// keeps the write in city c0's partition.
func chaosInsertParams(base, i int) executor.Params {
	return executor.Params{
		"rid":    int64(base + i),
		"date":   int64(1_700_000_000 + i*86_400),
		"gid":    int64(i % 8),
		"roomid": int64(i % 12),
	}
}

// restart is the tail every crashed run shares: the process comes back
// over the surviving cluster with a fresh coordinator (in-memory hints
// lost), the journal reopened from its durable bytes and the
// cross-crash verifier re-attached; it replays, settle finishes what
// recovery decided, the invariants are checked and — whatever recovery
// decided — the restarted system must serve.
func (f *chaosFixture) restart(c *cell, name string, crashed *harness.System, rc harness.ReplicationConfig, v *verify.Verifier,
	durable []byte, pr *search.PhaseRecommendation, ropts harness.RecoverOptions,
	settle func(*harness.System, *harness.RecoverReport) error) error {
	j, recs, err := journal.Open(durable, journal.Options{})
	if err != nil {
		return fmt.Errorf("reopen journal: %w", err)
	}
	sys, err := c.system(harness.Config{
		Name: name, Rec: crashed.Rec(), Repl: crashed.Repl, Replication: &rc,
		Verifier: v, Journal: j,
	})
	if err != nil {
		return err
	}
	rep, err := sys.Recover(f.ds, recs, pr, ropts)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := settle(sys, rep); err != nil {
		return err
	}
	vrep, err := sys.VerifyCheck()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !vrep.OK() {
		return fmt.Errorf("invariants violated after recovery (outcome %v):\n%s", rep.Outcome, vrep.Format())
	}
	if _, err := sys.ExecStatement(f.query, f.queryParams); err != nil {
		return fmt.Errorf("query after recovery: %w", err)
	}
	return nil
}

// migrationRun executes one A -> B live migration on a fresh replicated
// cluster with the journal crash armed at append index armAt (negative
// arms nothing), interleaving a query and an insert per step. A crash
// restarts over the surviving cluster, recovers from the reopened
// journal, drains a resumed migration, and runs the invariant check.
func (f *chaosFixture) migrationRun(c *cell, rc harness.ReplicationConfig, w harness.NodeWeather, armAt int64, cell *CrashChaosCell) error {
	v := verify.New()
	cr := faults.NewCrashes()
	if armAt >= 0 {
		cr.Arm(faults.SiteJournal, armAt)
	}
	j := journal.New(journal.Options{Crashes: cr})
	sys, err := c.system(harness.Config{
		Name: "crashchaos", Rec: f.recA, Replication: &rc, NodeWeather: &w,
		Verifier: v, Journal: j, Crashes: cr,
	})
	if err != nil {
		return err
	}

	// Unlimited fault budget: bad-weather backfill retries instead of
	// aborting, so the sweep measures crashes, not budget policy (the
	// budget boundary has its own tests).
	liveOpts := migrate.LiveOptions{ChunkRecords: crashChaosChunkRecords, FaultBudget: -1, Params: migrate.DefaultCostParams()}
	pr := &search.PhaseRecommendation{Rec: f.recB, Build: f.build, Drop: f.drop}
	crashed := false
	if _, err := sys.StartLiveMigration(f.ds, pr, liveOpts); err != nil {
		if !faults.IsCrash(err) {
			return fmt.Errorf("start: %w", err)
		}
		crashed = true
	}
	for i := 0; !crashed && sys.LiveActive(); i++ {
		if i > 10_000 {
			return errors.New("migration neither finished nor crashed")
		}
		if _, err := sys.LiveStep(); err != nil {
			if faults.IsCrash(err) {
				crashed = true
				break
			}
			return fmt.Errorf("step %d: %w", i, err)
		}
		for _, stmt := range []struct {
			s workload.Statement
			p executor.Params
		}{{f.query, f.queryParams}, {f.insert, chaosInsertParams(10_000, i)}} {
			switch _, err := sys.ExecStatement(stmt.s, stmt.p); {
			case err == nil:
			case errors.Is(err, harness.ErrUnavailable):
				// The degraded outcome bad weather buys: count it and
				// keep the migration moving.
				cell.Unavailable++
			case faults.IsCrash(err):
				crashed = true
			default:
				return fmt.Errorf("statement at step %d: %w", i, err)
			}
		}
	}
	if !crashed {
		if armAt >= 0 {
			return errors.New("armed crash never fired")
		}
		rep, err := sys.VerifyCheck()
		if err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("clean run failed verification:\n%s", rep.Format())
		}
		cell.JournalRecords = j.Records()
		cell.Verified++
		return nil
	}

	err = f.restart(c, "recovered", sys, rc, v, j.Durable(), pr, harness.RecoverOptions{Live: liveOpts},
		func(recovered *harness.System, rep *harness.RecoverReport) error {
			cell.CrashRuns++
			cell.RecoverySimMillis += rep.SimMillis
			switch rep.Outcome {
			case harness.RecoverResumed:
				cell.Resumed++
				cell.RecopiedRecords += rep.TotalRecords - rep.Watermark
				if st, err := recovered.DrainLiveMigration(0); err != nil || st != migrate.StateDone {
					return fmt.Errorf("drain resumed migration: state %v, err %w", st, err)
				}
			case harness.RecoverCompleted:
				cell.Completed++
			case harness.RecoverRolledBack:
				cell.RolledBack++
			case harness.RecoverNone:
				cell.None++
			}
			return nil
		})
	if err != nil {
		return err
	}
	cell.Verified++
	return nil
}

// siteRun is one coordinator crash-restart episode at QUORUM: a
// replica of the query family's c0 partition goes down, writes queue
// hints against it, it comes back, and the armed crash fires inside
// hint replay (handoff) or divergence repair (read repair). The
// cluster then restarts with a fresh coordinator — hints die with the
// process — and the verifier checks every acknowledged write is still
// durable somewhere.
func (f *chaosFixture) siteRun(c *cell, rc harness.ReplicationConfig, w harness.NodeWeather, site string) (CrashChaosSiteCell, error) {
	out := CrashChaosSiteCell{Site: site}
	rc.Read, rc.Write = executor.Quorum, executor.Quorum
	v := verify.New()
	cr := faults.NewCrashes()
	sys, err := c.system(harness.Config{
		Name: "crashchaos-site", Rec: f.recA, Replication: &rc, NodeWeather: &w,
		Verifier: v, Crashes: cr,
	})
	if err != nil {
		return out, err
	}

	replicas := sys.Repl.ReplicasFor(f.queryCF, []backend.Value{"c0"})
	if len(replicas) == 0 {
		return out, fmt.Errorf("no replicas for %s", f.queryCF)
	}
	if err := sys.MarkNodeDown(replicas[0]); err != nil {
		return out, err
	}
	for i := 0; i < 6; i++ {
		p := chaosInsertParams(20_000, i)
		p["roomid"] = int64(2 * (i % 6)) // even rooms sit in c0 hotels
		switch _, err := sys.ExecStatement(f.insert, p); {
		case err == nil:
		case errors.Is(err, harness.ErrUnavailable):
		default:
			return out, fmt.Errorf("write with a replica down: %w", err)
		}
	}
	out.HintsQueued = sys.Robustness().Replica.HintsQueued
	if out.HintsQueued == 0 {
		return out, errors.New("no hints queued against the downed replica")
	}
	if err := sys.MarkNodeUp(replicas[0]); err != nil {
		return out, err
	}

	// Arm at the site's current count, not index 0: a flaky node fault
	// during seeding can queue a hint on an up node, and the statement
	// retry replays it — consuming earlier occurrences before arming.
	cr.Arm(site, cr.Count(site))
	crashed := false
	// The bound must outlast a node-fault down window (DefaultDownOps
	// = 40 ops): an unlucky seed can open one on the hinted replica
	// right after MarkNodeUp, and until it closes every write against
	// the replica queues another hint instead of replaying — the armed
	// crash cannot fire while the window holds.
	for i := 0; i < 200 && !crashed; i++ {
		var err error
		if site == faults.SiteHandoff {
			p := chaosInsertParams(21_000, i)
			p["roomid"] = int64(0)
			_, err = sys.ExecStatement(f.insert, p)
		} else {
			_, err = sys.ExecStatement(f.query, f.queryParams)
		}
		switch {
		case faults.IsCrash(err):
			crashed = true
			out.OpsToCrash = i + 1
		case err == nil, errors.Is(err, harness.ErrUnavailable):
		default:
			return out, fmt.Errorf("non-crash error: %w", err)
		}
	}
	if !crashed {
		return out, errors.New("armed crash never fired")
	}

	// No journal was attached, so nothing durable to replay and no
	// migration in flight for recovery to find.
	err = f.restart(c, "restarted", sys, rc, v, nil, nil, harness.RecoverOptions{},
		func(_ *harness.System, rep *harness.RecoverReport) error {
			if rep.Outcome != harness.RecoverNone {
				return fmt.Errorf("recover outcome %v, want none (no migration in flight)", rep.Outcome)
			}
			return nil
		})
	out.Verified = err == nil
	return out, err
}

// RunCrashChaos is the deterministic crash-recovery chaos sweep: per
// (consistency level, node fault rate) cell it runs one clean hotel
// A -> B live migration to count the journal's append indices, then
// re-runs the migration once per index with a crash armed exactly
// there, recovering each from the durable journal and checking the
// verifier's invariants — no acknowledged write lost, old and new
// families agree at cutover, no orphan families. A second sweep
// crashes the replica coordinator inside hinted handoff and read
// repair and restarts it. Any invariant violation fails the whole run;
// the same config and seed reproduce every byte at any advisor worker
// count.
func RunCrashChaos(cfg CrashChaosConfig) (*CrashChaosResult, error) {
	rates := nonEmpty(cfg.Rates, DefaultCrashChaosRates)
	f, err := buildChaosFixture(advisorOptions(cfg.Advisor, cfg.Obs, nil))
	if err != nil {
		return nil, err
	}

	repl := harness.ReplicationConfig{Nodes: cfg.Nodes, RF: cfg.RF}.Normalized()
	sw := &sweep{name: "crashchaos", ds: f.ds, obs: cfg.Obs}
	res := &CrashChaosResult{Levels: DefaultQuorumLevels, Nodes: repl.Nodes, RF: repl.RF, ChunkRecords: crashChaosChunkRecords}
	// Every cell draws its node faults from its own stream: the seed
	// plus the cell's ordinal.
	cells := int64(0)
	for _, rate := range rates {
		row := CrashChaosRow{Rate: rate, Cells: map[string]CrashChaosCell{}}
		for _, level := range res.Levels {
			cells++
			w := harness.NodeWeather{Seed: cfg.Seed + cells, Profile: faults.NodeRate(rate)}
			err := sw.cell(fmt.Sprintf("rate=%g %s", rate, level), func(c *cell) error {
				rc := repl
				rc.Read, rc.Write = level, level
				cell := CrashChaosCell{}
				// The clean run (arm -1) goes first: its append count is
				// the list of crash points the armed runs sweep.
				for arm := -1; arm < cell.JournalRecords; arm++ {
					if err := f.migrationRun(c, rc, w, int64(arm), &cell); err != nil {
						return fmt.Errorf("arm %d: %w", arm, err)
					}
				}
				row.Cells[level.String()] = cell
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for _, rate := range rates {
		for _, site := range []string{faults.SiteHandoff, faults.SiteReadRepair} {
			cells++
			w := harness.NodeWeather{Seed: cfg.Seed + cells, Profile: faults.NodeRate(rate)}
			err := sw.cell(fmt.Sprintf("rate=%g %s", rate, site), func(c *cell) error {
				cell, err := f.siteRun(c, repl, w, site)
				cell.Rate = rate
				res.Sites = append(res.Sites, cell)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// Format renders the sweep as the recovery-cost table: per cell, the
// crash points swept, the recovery outcome histogram, the records
// recovery had to re-copy, the simulated time its journal appends
// cost, and the verifier tally (a run that failed verification aborts
// the sweep, so Verified always equals runs here — the column is the
// receipt).
func (r *CrashChaosResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d nodes, RF %d; backfill chunk %d records; crash at every journal append index\n",
		r.Nodes, r.RF, r.ChunkRecords)
	fmt.Fprintf(&b, "%-8s %-8s %8s %6s %8s %8s %8s %5s %7s %9s %12s %9s\n",
		"Rate", "Level", "Records", "Runs", "Resumed", "RollFwd", "RollBack", "NoOp", "Unavail", "Recopied", "Recovery(ms)", "Verified")
	for _, row := range r.Rows {
		for _, level := range r.Levels {
			c := row.Cells[level.String()]
			fmt.Fprintf(&b, "%-8.3f %-8s %8d %6d %8d %8d %8d %5d %7d %9d %12.3f %6d/%d\n",
				row.Rate, level, c.JournalRecords, c.CrashRuns,
				c.Resumed, c.Completed, c.RolledBack, c.None, c.Unavailable,
				c.RecopiedRecords, c.RecoverySimMillis, c.Verified, c.CrashRuns+1)
		}
	}
	fmt.Fprintf(&b, "coordinator crash-restart (QUORUM): crash inside hint replay and read repair, restart, verify\n")
	fmt.Fprintf(&b, "%-8s %-12s %6s %11s %9s\n", "Rate", "Site", "Hints", "OpsToCrash", "Verified")
	for _, c := range r.Sites {
		fmt.Fprintf(&b, "%-8.3f %-12s %6d %11d %9t\n", c.Rate, c.Site, c.HintsQueued, c.OpsToCrash, c.Verified)
	}
	return b.String()
}
