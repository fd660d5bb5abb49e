package harness

import (
	"fmt"

	"nose/internal/backend"
	"nose/internal/journal"
	"nose/internal/migrate"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/verify"
)

// RecoverOutcome is what Recover decided a crashed incarnation's
// journal called for.
type RecoverOutcome int

// Recovery outcomes; the numeric codes are what lands in the journal's
// KindRecovered record.
const (
	// RecoverNone: no migration was in flight (or it had already
	// finished) — nothing to do.
	RecoverNone RecoverOutcome = iota
	// RecoverResumed: the migration was mid-backfill; a recovered
	// controller continues from the durable chunk watermark.
	RecoverResumed
	// RecoverCompleted: the migration had reached cutover; recovery
	// rolled it forward — plans adopted, superseded families dropped.
	RecoverCompleted
	// RecoverRolledBack: an abort intent was journaled; recovery
	// finished the rollback by dropping the migration's families.
	RecoverRolledBack
)

// String names the outcome for reports.
func (o RecoverOutcome) String() string {
	switch o {
	case RecoverNone:
		return "none"
	case RecoverResumed:
		return "resumed"
	case RecoverCompleted:
		return "completed"
	case RecoverRolledBack:
		return "rolled-back"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// RecoverReport describes what Recover did.
type RecoverReport struct {
	// Outcome is the decision taken.
	Outcome RecoverOutcome
	// Watermark is the durable backfill cursor the journal held;
	// TotalRecords the backfill size reconstructed from the dataset.
	// Records between them were lost with the crash (or were never
	// copied) and are (re-)copied by a resumed migration. Both are zero
	// for RecoverNone.
	Watermark, TotalRecords int
	// OrphansDropped names the families recovery garbage-collected
	// while finishing a rollback.
	OrphansDropped []string
	// SimMillis is the simulated time recovery's own journal appends
	// consumed; a resumed migration's copying costs land on the
	// controller as usual.
	SimMillis float64
}

// Recover replays a crashed incarnation's migration journal and brings
// this system — built by New over the surviving store (Config.Store or
// Config.Repl), serving the recommendation the crashed incarnation
// served — to a consistent state. recs is the record list journal.Open
// returned over the crashed incarnation's durable bytes; pr is the
// phase recommendation of the migration the journal describes (nil is
// allowed when the journal holds no migration). Declare the reopened
// journal in the Config so recovery's own decisions are journaled, the
// run's verifier so legitimate drops are exempted from the
// no-lost-writes invariant, and the same weather as the crashed
// incarnation so a resumed backfill crosses the same layers.
//
// The journal alone decides: an abort intent finishes the rollback, a
// migration that reached cutover rolls forward (the crashed incarnation
// may already have served from the new schema), and one still in
// backfill resumes under live, which tunes the resumed controller
// (chunk size, fault budget); the journal is attached automatically.
//
// Recovery is idempotent: it re-runs cleanly over a journal that
// already contains recovery records, because every action it takes —
// create-if-missing, drop, plan adoption — is a no-op the second time.
// It never drops and re-creates a family that survived the crash:
// survivors hold acknowledged dual-writes whose loss is exactly what
// the verifier exists to catch.
func (s *System) Recover(ds *backend.Dataset, recs []journal.Record, pr *search.PhaseRecommendation, live migrate.LiveOptions) (*RecoverReport, error) {
	s.reg.Counter("harness.recover.attempts").Inc()
	rep := &RecoverReport{}

	// Summarize the journal from its last start record forward.
	start := -1
	for i, r := range recs {
		if r.Kind == journal.KindStart {
			start = i
		}
	}
	if start < 0 {
		return s.finishRecover(rep, RecoverNone)
	}
	var created []string
	createdSet := map[string]bool{}
	var lastState migrate.State = migrate.StateDualWrite
	watermark := 0
	cutoverApplied := false
	sawAborted, sawDone := false, false
	for _, r := range recs[start:] {
		switch r.Kind {
		case journal.KindCreated:
			if !createdSet[r.Name] {
				createdSet[r.Name] = true
				created = append(created, r.Name)
			}
		case journal.KindState:
			st := migrate.State(r.State)
			switch st {
			case migrate.StateAborted:
				sawAborted = true
			case migrate.StateDone:
				sawDone = true
			default:
				if st > lastState {
					lastState = st
				}
			}
		case journal.KindChunk:
			watermark = int(r.Cursor)
		case journal.KindCutoverApplied:
			cutoverApplied = true
		}
	}
	startRec := recs[start]

	if sawDone {
		return s.finishRecover(rep, RecoverNone)
	}
	if sawAborted {
		// The crashed incarnation intended (or began) a rollback: finish
		// it by garbage-collecting whatever families survived.
		rep.OrphansDropped = s.dropFamilies(created)
		return s.finishRecover(rep, RecoverRolledBack)
	}

	if pr == nil {
		return nil, fmt.Errorf("harness: %s: recover: journal holds an in-flight migration to %q but no recommendation was supplied",
			s.Name, startRec.Name)
	}
	// Align and validate: the recommendation must describe the same
	// migration the journal recorded, or replaying it would build the
	// wrong schema.
	pr.Rec.Schema.AlignTo(s.Rec().Schema)
	if err := matchNames("build", pr.Build, startRec.Build); err != nil {
		return nil, fmt.Errorf("harness: %s: recover %q: %w", s.Name, startRec.Name, err)
	}
	if err := matchNames("drop", pr.Drop, startRec.Drop); err != nil {
		return nil, fmt.Errorf("harness: %s: recover %q: %w", s.Name, startRec.Name, err)
	}

	rows := snapshotRows(ds, pr)
	rep.TotalRecords = len(rows)
	if watermark > rep.TotalRecords {
		return nil, fmt.Errorf("harness: %s: recover %q: journal watermark %d exceeds the %d backfill records the dataset yields",
			s.Name, startRec.Name, watermark, rep.TotalRecords)
	}
	rep.Watermark = watermark

	if cutoverApplied || lastState >= migrate.StateCutover || watermark == rep.TotalRecords {
		// Point of no return: every record landed (the final chunk
		// watermark is durable), so roll forward. The crashed
		// incarnation may already have served reads from the new plans.
		for _, x := range pr.Build {
			if _, derr := s.migrateStore().Def(x.Name); derr != nil {
				return nil, fmt.Errorf("harness: %s: recover %q: family %s reached cutover but is missing from the store",
					s.Name, startRec.Name, x.Name)
			}
		}
		s.adoptRecommendation(pr.Rec)
		if !cutoverApplied {
			if s.verifier != nil {
				s.verifier.NoteCutover(rows)
			}
			if err := s.journalRecover(journal.Record{Kind: journal.KindCutoverApplied}, rep); err != nil {
				return nil, err
			}
		}
		dropped := s.dropFamilies(startRec.Drop)
		s.reg.Counter("harness.recover.families_dropped").Add(int64(len(dropped)))
		if err := s.journalRecover(journal.Record{Kind: journal.KindState, State: uint8(migrate.StateDone)}, rep); err != nil {
			return nil, err
		}
		return s.finishRecover(rep, RecoverCompleted)
	}

	// Resume: re-create only the families the crash left missing, then
	// continue backfill from the durable watermark. Records copied after
	// the last durable chunk record are re-put (idempotent).
	live.Journal = s.jr
	ctrl, err := migrate.ResumeLive(ds, s.migrateStore(), pr.Build, pr.Drop, watermark, s.Exec.Put, live)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: recover %q: %w", s.Name, startRec.Name, err)
	}
	s.armLive(ctrl, ds, pr, s.reg)
	return s.finishRecover(rep, RecoverResumed)
}

// migrateStore returns the system's store as the migration surface.
func (s *System) migrateStore() migrate.Store {
	if s.Repl != nil {
		return s.Repl
	}
	return s.Store
}

// dropFamilies drops every named family still present, notifying the
// verifier, and returns the ones that actually existed.
func (s *System) dropFamilies(names []string) []string {
	st := s.migrateStore()
	var dropped []string
	for _, name := range names {
		if _, err := st.Def(name); err != nil {
			continue
		}
		st.Drop(name)
		if s.verifier != nil {
			s.verifier.NoteDropped(name)
		}
		dropped = append(dropped, name)
	}
	return dropped
}

// journalRecover appends one recovery decision to the journal.
func (s *System) journalRecover(r journal.Record, rep *RecoverReport) error {
	if s.jr == nil {
		return nil
	}
	ms, err := s.jr.Append(r)
	rep.SimMillis += ms
	s.reg.Gauge("harness.recover.sim_ms").Add(ms)
	if err != nil {
		return fmt.Errorf("harness: %s: recover: %w", s.Name, err)
	}
	return nil
}

// finishRecover journals and counts the outcome.
func (s *System) finishRecover(rep *RecoverReport, o RecoverOutcome) (*RecoverReport, error) {
	rep.Outcome = o
	if err := s.journalRecover(journal.Record{Kind: journal.KindRecovered, Outcome: uint8(o)}, rep); err != nil {
		return nil, err
	}
	s.reg.Counter("harness.recover." + o.String()).Inc()
	s.reg.Counter("harness.recover.orphans_dropped").Add(int64(len(rep.OrphansDropped)))
	return rep, nil
}

// matchNames checks that an index set carries exactly the journaled
// names.
func matchNames(what string, xs []*schema.Index, names []string) error {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	if len(xs) != len(names) {
		return fmt.Errorf("recommendation %s set has %d indexes, journal recorded %d", what, len(xs), len(names))
	}
	for _, x := range xs {
		if !want[x.Name] {
			return fmt.Errorf("recommendation %s index %s not in the journaled migration", what, x.Name)
		}
	}
	return nil
}

// snapshotRows lists the primary keys of the records the migration
// backfills — same families, same records in the same order as the
// controller's snapshot, both read from the dataset's materializer —
// without touching the store. The verifier holds them from cutover on.
func snapshotRows(ds *backend.Dataset, pr *search.PhaseRecommendation) []verify.Row {
	var rows []verify.Row
	for _, x := range pr.Build {
		// The callback never fails, so neither does the iteration.
		_ = ds.ForEachRecord(x, func(partition, clustering, _ []backend.Value) error {
			rows = append(rows, verify.Row{CF: x.Name, Partition: partition, Clustering: clustering})
			return nil
		})
	}
	return rows
}
