package harness

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nose/internal/backend"
	"nose/internal/drift"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/journal"
	"nose/internal/migrate"
	"nose/internal/obs"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// liveMigration is the harness's view of one background migration: the
// controller plus the dual-write routing that keeps the families under
// construction current while backfill runs.
type liveMigration struct {
	ctrl *migrate.Live
	ds   *backend.Dataset
	pr   *search.PhaseRecommendation
	// dual maps each write statement to the target schema's maintenance
	// of the families being built. dualDone flips when forwarding stops:
	// at plan cutover (the new plans maintain the families directly from
	// then on) or at abort.
	dual     map[workload.Statement][]*search.UpdateRecommendation
	dualDone atomic.Bool

	dualWrites, dualWriteFailures *obs.Counter
}

// StartLiveMigration begins migrating the running system to a phase
// recommendation in the background: the phase's new column families
// are created empty (an error if another migration is running), writes
// executed from now on are forwarded to them, and the historical
// records are copied by repeated LiveStep calls interleaved with
// statement execution. Backfill writes flow through the system's
// executor — fault injector, coordinator, and retry policy included —
// so migrating under weather is charged and endangered like any other
// traffic. The returned controller can be used to Abort or inspect
// Progress; drive it with LiveStep rather than calling Step directly so
// cutover swaps the system's plans.
func (s *System) StartLiveMigration(ds *backend.Dataset, pr *search.PhaseRecommendation, opts migrate.LiveOptions) (*migrate.Live, error) {
	opts.Journal = s.jr
	lm, err := s.beginLive(ds, pr, s.Exec.Put, opts, s.reg)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: start live migration to %q: %w", s.Name, phaseName(pr), err)
	}
	s.reg.Counter("harness.live.started").Inc()
	p := lm.ctrl.Progress()
	s.traceSpan("live-migrate start -> "+phaseName(pr), "migration", 0,
		map[string]any{"build": len(pr.Build), "drop": len(pr.Drop), "records": p.TotalRecords})
	return lm.ctrl, nil
}

// beginLive is how every migration starts, background or not: claim
// the idle system, align the target schema's names, create the new
// families and snapshot their backfill on the system's store, and arm
// dual-write forwarding. put is the write path of the copy — what
// Migrate and StartLiveMigration choose differently. ledger books the
// background-migration instruments (harness.live.*); Migrate, which has
// its own, passes nil. A journal in opts gets the migration's intent.
func (s *System) beginLive(ds *backend.Dataset, pr *search.PhaseRecommendation, put migrate.PutFunc, opts migrate.LiveOptions, ledger *obs.Registry) (*liveMigration, error) {
	if s.live.Load() != nil {
		return nil, errors.New("a live migration is already running")
	}
	// The target schema comes from its own advise run, whose "cfN" names
	// need not agree with the serving schema's: align them so structural
	// twins keep their installed family name and fresh families never
	// shadow an installed one. The phase's plans share the renamed Index
	// objects, so they stay consistent.
	pr.Rec.Schema.AlignTo(s.Rec().Schema)
	// The start record names the build and drop sets, so recovery can
	// reconstruct the migration from the journal alone. Dying at this
	// append leaves the store untouched and the journal without a start
	// record — recovery correctly finds nothing to do.
	if opts.Journal != nil {
		ms, err := opts.Journal.Append(journal.Record{
			Kind: journal.KindStart, Name: phaseName(pr), Build: indexNames(pr.Build), Drop: indexNames(pr.Drop),
		})
		ledger.Gauge("harness.live.sim_ms").Add(ms)
		if err != nil {
			return nil, err
		}
	}
	ctrl, err := migrate.StartLive(ds, s.migrateStore(), pr.Build, pr.Drop, put, opts)
	if err != nil {
		return nil, err
	}
	return s.armLive(ctrl, ds, pr, ledger), nil
}

// indexNames lists the indexes' family names in order.
func indexNames(xs []*schema.Index) []string {
	names := make([]string, 0, len(xs))
	for _, x := range xs {
		names = append(names, x.Name)
	}
	return names
}

// armLive wires a (fresh or recovered) live-migration controller into
// the system: dual-write routing for the families under construction,
// and the abort hook that tears that routing down atomically with the
// controller's rollback. Without the hook, ctrl.Abort() called directly
// on the controller would drop the new families while the harness kept
// forwarding writes to them — re-creating them as orphans. ledger is
// where forwarded writes and the abort are counted; see beginLive.
func (s *System) armLive(ctrl *migrate.Live, ds *backend.Dataset, pr *search.PhaseRecommendation, ledger *obs.Registry) *liveMigration {
	building := map[string]bool{}
	for _, name := range ctrl.Building() {
		building[name] = true
	}
	dual := map[workload.Statement][]*search.UpdateRecommendation{}
	for _, ur := range pr.Rec.Updates {
		if building[ur.Plan.Index.Name] {
			st := ur.Statement.Statement
			dual[st] = append(dual[st], ur)
		}
	}
	lm := &liveMigration{
		ctrl:              ctrl,
		ds:                ds,
		pr:                pr,
		dual:              dual,
		dualWrites:        ledger.Counter("harness.live.dual_writes"),
		dualWriteFailures: ledger.Counter("harness.live.dual_write_failures"),
	}
	ctrl.SetOnAbort(func(created []string) {
		// Runs under the controller's lock, atomically with the
		// rollback: no statement can observe dropped families still
		// receiving forwards. The CAS tolerates the hook firing after a
		// newer migration took the slot.
		lm.dualDone.Store(true)
		s.live.CompareAndSwap(lm, nil)
		ledger.Counter("harness.live.aborted").Inc()
		if s.verifier != nil {
			for _, cf := range created {
				s.verifier.NoteDropped(cf)
			}
		}
	})
	s.live.Store(lm)
	return lm
}

// cutover swaps the system onto the migration's plans once every record
// has landed. From this load-linearization point statements execute the
// new schema's plans, which maintain the new families directly —
// forwarding is over.
func (s *System) cutover(lm *liveMigration) {
	s.adoptRecommendation(lm.pr.Rec)
	lm.dualDone.Store(true)
	if s.verifier != nil {
		s.verifier.NoteCutover(snapshotRows(lm.ds, lm.pr))
	}
}

// retire releases the system from a finished migration.
func (s *System) retire(lm *liveMigration) {
	s.live.Store(nil)
	if s.verifier != nil {
		for _, x := range lm.pr.Drop {
			s.verifier.NoteDropped(x.Name)
		}
	}
}

// LiveActive reports whether a background migration is running.
func (s *System) LiveActive() bool { return s.live.Load() != nil }

// LiveStep advances the background migration by one bounded unit of
// work — call it between statements or transactions. When backfill
// completes, LiveStep performs the atomic plan cutover (the system
// serves the new schema from that instant) and stops dual-write
// forwarding; two more steps retire the old families and finish. On
// abort — fault budget exceeded or ctrl.Abort — the controller has
// already rolled the new families back, LiveStep detaches it, counts
// the abort, and returns migrate.ErrAborted; the old schema was
// serving all along. Calling LiveStep with no migration running is an
// error.
func (s *System) LiveStep() (migrate.StepResult, error) {
	lm := s.live.Load()
	if lm == nil {
		return migrate.StepResult{}, fmt.Errorf("harness: %s: no live migration running", s.Name)
	}
	sr, err := lm.ctrl.Step()
	if sr.Copied > 0 {
		s.reg.Counter("harness.live.backfill_records").Add(int64(sr.Copied))
	}
	if sr.Faults > 0 {
		s.reg.Counter("harness.live.faults").Add(int64(sr.Faults))
	}
	s.reg.Gauge("harness.live.sim_ms").Add(sr.SimMillis)
	if sr.SimMillis > 0 || sr.Transitioned {
		s.traceSpan("live-migrate "+sr.State.String(), "migration", sr.SimMillis,
			map[string]any{"copied": sr.Copied, "faults": sr.Faults})
	}
	switch {
	case faults.IsCrash(err):
		// The simulated process died mid-step. Nothing is detached or
		// counted: this incarnation is dead, and a recovered incarnation
		// — built over the surviving store with harness.Recover — owns
		// all further bookkeeping.
		return sr, fmt.Errorf("harness: %s: live migration to %q: %w", s.Name, phaseName(lm.pr), err)
	case err != nil:
		// Abort: the controller's OnAbort hook (see armLive) already
		// stopped dual-write forwarding, detached the migration, and
		// counted the abort — atomically with the rollback.
		s.live.CompareAndSwap(lm, nil)
		return sr, fmt.Errorf("harness: %s: live migration to %q: %w", s.Name, phaseName(lm.pr), err)
	case sr.State == migrate.StateCutover && sr.Transitioned:
		s.cutover(lm)
		s.reg.Counter("harness.live.cutovers").Inc()
		s.traceSpan("live-migrate plan cutover -> "+phaseName(lm.pr), "migration", 0, nil)
		// Journal that the plan swap happened: recovery distinguishes
		// "cutover reached but plans never swapped" (roll forward,
		// re-adopt) from "already serving the new schema".
		if s.jr != nil {
			ms, jerr := s.jr.Append(journal.Record{Kind: journal.KindCutoverApplied})
			s.reg.Gauge("harness.live.sim_ms").Add(ms)
			if jerr != nil {
				return sr, fmt.Errorf("harness: %s: live migration to %q: %w", s.Name, phaseName(lm.pr), jerr)
			}
		}
	case sr.State == migrate.StateDone:
		s.retire(lm)
		s.reg.Counter("harness.live.completed").Inc()
	}
	return sr, nil
}

// drainStallLimit is how many consecutive zero-progress steps
// DrainLiveMigration tolerates before giving up on the migration. A
// healthy step always makes progress (copies records, transitions
// state, or aborts on a budget breach); repeated no-op steps mean the
// migration can never finish under Drain — an unlimited fault budget
// with a permanently failing backfill put.
const drainStallLimit = 3

// DrainLiveMigration runs LiveStep until the migration finishes or
// aborts, bounded by maxSteps (<=0 means no bound). It returns the
// terminal state and, for aborts, migrate.ErrAborted. Use it to let a
// migration complete after its workload ends.
//
// A migration that stops making progress — no records copied and no
// state transition for drainStallLimit consecutive steps — is aborted
// and the abort surfaced, instead of Drain spinning its entire step
// budget (or, unbounded, forever) on a migration that cannot finish.
// The way to get there is a permanently failing backfill put under an
// unlimited fault budget; a bounded budget aborts on its own when the
// failures exhaust it.
func (s *System) DrainLiveMigration(maxSteps int) (migrate.State, error) {
	stalled := 0
	for i := 0; maxSteps <= 0 || i < maxSteps; i++ {
		lm := s.live.Load()
		if lm == nil {
			break
		}
		sr, err := s.LiveStep()
		if err != nil {
			return migrate.StateAborted, err
		}
		if sr.Copied == 0 && !sr.Transitioned {
			stalled++
			if stalled >= drainStallLimit {
				// Not progressing: the backfill put fails permanently
				// under an unlimited budget. Abort (the OnAbort hook
				// detaches the migration) and surface it.
				lm.ctrl.Abort()
				s.live.CompareAndSwap(lm, nil)
				return migrate.StateAborted, fmt.Errorf("harness: %s: live migration stalled: no progress in %d consecutive steps: %w",
					s.Name, stalled, migrate.ErrAborted)
			}
			continue
		}
		stalled = 0
	}
	if lm := s.live.Load(); lm != nil {
		return lm.ctrl.State(), fmt.Errorf("harness: %s: live migration not finished after %d steps", s.Name, maxSteps)
	}
	return migrate.StateDone, nil
}

// forwardDualWrites executes the maintenance the in-flight live
// migration's target schema requires for this statement against the
// families under construction, reporting whether the statement was
// forwarded at all. The forwarded write is charged into the statement's
// simulated time (that is the dual-write overhead), but a forwarding
// failure never fails the client statement — if the serving schema also
// stored it the write landed there, and either way the loss is charged
// to the migration's fault budget, keeping the abort decision inside
// the controller.
func (s *System) forwardDualWrites(st workload.Statement, params executor.Params) (float64, bool) {
	lm := s.live.Load()
	if lm == nil || lm.dualDone.Load() {
		return 0, false
	}
	urs := lm.dual[st]
	if len(urs) == 0 {
		return 0, false
	}
	res, err := s.Exec.ExecuteWrite(urs, params)
	total := 0.0
	if res != nil {
		total = res.SimMillis
	}
	lm.dualWrites.Inc()
	if err != nil {
		lm.dualWriteFailures.Inc()
		lm.ctrl.NoteExternalFault()
	}
	return total, true
}

// EnableDrift attaches a drift detector: every executed statement is
// observed by label, the executed mix lands in the system registry as
// harness.mix.* counters (plus the detector's own drift.* instruments),
// and a fired trigger parks its window mix for TakeDriftTrigger. Call
// before executing statements.
func (s *System) EnableDrift(det *drift.Detector) {
	det.SetObs(s.reg)
	s.det.Store(det)
}

// observeDrift feeds one executed statement to the attached detector.
func (s *System) observeDrift(st workload.Statement) {
	det := s.det.Load()
	if det == nil {
		return
	}
	label := workload.Label(st)
	s.reg.Counter("harness.mix." + label).Inc()
	if dec := det.Observe(label); dec.Triggered {
		s.mu.Lock()
		s.pendingMix = dec.Mix
		s.mu.Unlock()
	}
}

// TakeDriftTrigger consumes the most recent unclaimed drift trigger,
// returning the statement mix of the window that fired it — the mix to
// re-advise on — or nil when no trigger is pending.
func (s *System) TakeDriftTrigger() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.pendingMix
	s.pendingMix = nil
	return m
}

// traceSpan appends one non-statement span (migration work, cutover
// markers) to the system's trace lane on the simulated-time cursor.
func (s *System) traceSpan(name, cat string, ms float64, args map[string]any) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if s.tracer == nil {
		return
	}
	s.tracer.SimEvent(name, cat, s.traceTid, s.traceCursor, ms, args)
	s.traceCursor += ms
}
