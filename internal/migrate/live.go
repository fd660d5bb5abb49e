package migrate

import (
	"errors"
	"fmt"
	"sync"

	"nose/internal/backend"
	"nose/internal/faults"
	"nose/internal/journal"
	"nose/internal/schema"
)

// State is a live migration's position in its deterministic state
// machine. Transitions only move forward:
//
//	DualWrite → Backfill → Cutover → Drop → Done
//
// with Aborted reachable from DualWrite and Backfill when the fault
// budget is exceeded or the caller aborts. Reaching StateCutover is
// the point of no return: every record has landed, the caller is about
// to serve from the new families, and rolling them back would pull the
// schema out from under live plans — so from Cutover on, faults are
// still counted but can no longer abort. Once Done or Aborted, the
// controller is inert.
type State int

// Live migration states, in transition order.
const (
	// StateDualWrite: new families exist and receive forwarded writes,
	// but backfill has not started. The first Step leaves this state —
	// it models the settle window in which in-flight writes start
	// landing on both schemas before historical data moves.
	StateDualWrite State = iota
	// StateBackfill: historical records are being copied into the new
	// families in bounded chunks, interleaved with statement execution.
	StateBackfill
	// StateCutover: every record has landed; the next Step asks the
	// caller to swap its plans atomically onto the new schema.
	StateCutover
	// StateDrop: plans are on the new schema; the next Step discards
	// the superseded families.
	StateDrop
	// StateDone: the migration completed.
	StateDone
	// StateAborted: the migration rolled back — every family it
	// created was dropped and the old schema keeps serving.
	StateAborted
)

// String names the state for traces and logs.
func (s State) String() string {
	switch s {
	case StateDualWrite:
		return "dual-write"
	case StateBackfill:
		return "backfill"
	case StateCutover:
		return "cutover"
	case StateDrop:
		return "drop"
	case StateDone:
		return "done"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrAborted reports that a live migration rolled back, either because
// its fault budget was exceeded or because the caller called Abort.
var ErrAborted = errors.New("migrate: live migration aborted")

// PutFunc writes one record into a column family on behalf of the
// backfill and returns the simulated milliseconds the write consumed —
// including time spent on failed attempts. The harness injects a
// PutFunc backed by its executor so backfill traffic flows through the
// same fault injector and retries as client statements; migrate
// cannot import executor directly (executor depends on search, which
// depends on migrate).
type PutFunc func(cf string, partition, clustering, values []backend.Value) (float64, error)

// Default live-migration tuning.
const (
	// DefaultChunkRecords bounds how many records one Step copies.
	DefaultChunkRecords = 64
	// DefaultFaultBudget is how many failed operations (backfill put
	// failures plus reported dual-write failures) a migration tolerates
	// before aborting.
	DefaultFaultBudget = 16
)

// LiveOptions tunes a live migration. The zero value takes every
// default.
type LiveOptions struct {
	// ChunkRecords bounds the records copied per Step; zero means
	// DefaultChunkRecords.
	ChunkRecords int
	// FaultBudget is the number of failed operations tolerated before
	// the migration aborts and rolls back. Zero means
	// DefaultFaultBudget; negative means unlimited.
	FaultBudget int
	// Journal, when set, durably records every state transition, family
	// creation and backfill chunk watermark so a crashed migration can
	// be recovered (see internal/journal and harness.Recover). Append
	// costs are charged into the migration's simulated time. A crash
	// injected at a journal append surfaces as the Step/StartLive error
	// and deliberately skips rollback — the simulated process is dead,
	// and recovery owns the cleanup.
	Journal *journal.Journal
}

func (o LiveOptions) normalized() LiveOptions {
	if o.ChunkRecords <= 0 {
		o.ChunkRecords = DefaultChunkRecords
	}
	if o.FaultBudget == 0 {
		o.FaultBudget = DefaultFaultBudget
	}
	return o
}

// liveRecord is one backfill unit, fully materialized so the copy is
// independent of dataset iteration state.
type liveRecord struct {
	cf                            string
	partition, clustering, values []backend.Value
}

// StepResult reports what one Step did.
type StepResult struct {
	// State is the controller's state after the step.
	State State
	// Copied is the number of records that landed this step.
	Copied int
	// SimMillis is the simulated time this step consumed (puts,
	// including failed attempts).
	SimMillis float64
	// Transitioned reports that the step changed state.
	Transitioned bool
	// Faults is the number of failed operations charged this step,
	// including external dual-write faults noted since the last step.
	Faults int
}

// Progress is a point-in-time view of a live migration.
type Progress struct {
	State State
	// CopiedRecords / TotalRecords measure backfill completion.
	CopiedRecords, TotalRecords int
	// Faults is the total failed operations charged against the
	// budget; Budget is the configured budget (<0 means unlimited).
	Faults, Budget int
	// SimMillis is the simulated time consumed so far.
	SimMillis float64
}

// Live is a fault-tolerant, resumable schema migration that runs
// interleaved with statement execution. Construct it with StartLive —
// which installs the new (empty) column families and snapshots the
// backfill work — then call Step repeatedly between batches of
// statements. Writes executed during the migration must be forwarded
// to the families named by Building (dual-writes); report forwarding
// failures with NoteExternalFault so they count against the fault
// budget.
//
// All methods are safe for concurrent use; the deterministic state
// machine only advances inside Step.
type Live struct {
	mu      sync.Mutex
	state   State
	put     PutFunc
	store   Store
	opts    LiveOptions
	records []liveRecord
	cursor  int
	faults  int
	extern  int
	created []string
	drop    []string
	res     Result
	onAbort func(created []string)
}

// SetOnAbort registers a hook invoked exactly once when the migration
// rolls back — whether via Abort or a fault-budget breach inside Step.
// The harness uses it to tear down dual-write forwarding atomically
// with the rollback: without the hook, an Abort called directly on the
// controller would leave the harness forwarding writes to families the
// rollback just dropped. The hook runs with the controller locked; it
// must not call back into Live.
func (l *Live) SetOnAbort(fn func(created []string)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onAbort = fn
}

// journalLocked appends one record to the configured journal (if any),
// charging the simulated sync time to the migration. The returned
// millis are also added to the caller's step result. An error is a
// simulated crash at the append point: the caller must propagate it
// without cleanup.
func (l *Live) journalLocked(r journal.Record) (float64, error) {
	if l.opts.Journal == nil {
		return 0, nil
	}
	ms, err := l.opts.Journal.Append(r)
	l.res.SimMillis += ms
	return ms, err
}

// StartLive begins a live migration: it creates every family in build
// (empty, ready to receive dual-writes), snapshots the records to
// backfill from the dataset, and returns a controller in
// StateDualWrite. If a create fails, families created so far are
// dropped and the error returned — nothing is left installed. Families
// in drop are only discarded after cutover.
func StartLive(ds *backend.Dataset, s Store, build, drop []*schema.Index, put PutFunc, opts LiveOptions) (*Live, error) {
	return open(ds, s, build, drop, put, opts, false)
}

// open is the one constructor body: it creates the families in build
// and snapshots every family's backfill records through the dataset's
// materializer, in the dataset's deterministic iteration order. A fresh
// migration owns every family it creates — an existing one is a name
// collision, and any failure drops what was created so far. A resumed
// migration (resume) creates only the families its store lacks and
// never drops anything: survivors hold dual-written rows that a
// re-create would silently wipe (exactly the loss the verifier's I1
// exists to catch).
func open(ds *backend.Dataset, s Store, build, drop []*schema.Index, put PutFunc, opts LiveOptions, resume bool) (*Live, error) {
	// Each family created is charged DefaultCostParams' setup price.
	// Per-record cost is not estimated here: every put is charged at
	// the simulated time the injected PutFunc actually consumed.
	setup := DefaultCostParams().PerFamilyMillis
	l := &Live{
		state: StateDualWrite,
		put:   put,
		store: s,
		opts:  opts.normalized(),
	}
	for _, x := range drop {
		l.drop = append(l.drop, x.Name)
	}
	fail := func(err error) (*Live, error) {
		if !resume {
			l.rollbackLocked()
		}
		return nil, err
	}
	for _, x := range build {
		if x.Name == "" {
			return fail(fmt.Errorf("migrate: index %s has no name", x))
		}
		def := backend.DefFromIndex(x)
		if _, missing := s.Def(def.Name); missing != nil || !resume {
			if err := s.Create(def); err != nil {
				return fail(fmt.Errorf("migrate: create %s: %w", x.Name, err))
			}
			l.res.SimMillis += setup
			// Journal the creation after it succeeded: recovery garbage-
			// collects created-but-unjournaled families by diffing the
			// store against the journal. A crash here skips rollback —
			// the simulated process is dead and recovery owns cleanup.
			if _, err := l.journalLocked(journal.Record{Kind: journal.KindCreated, Name: def.Name}); err != nil {
				return nil, err
			}
		}
		l.created = append(l.created, def.Name)
		// The callback never fails, so neither does the iteration.
		_ = ds.ForEachRecord(x, func(partition, clustering, values []backend.Value) error {
			l.records = append(l.records, liveRecord{def.Name, partition, clustering, values})
			return nil
		})
	}
	return l, nil
}

// ResumeLive reconstructs a live migration from its journal after a
// crash: build and drop are the index sets the journal's start record
// named, and cursor is the last durable chunk watermark. Families the
// crash left missing are created; survivors are kept as they are (see
// open). The backfill snapshot is rebuilt from the dataset
// (deterministic iteration order makes the cursor meaningful across
// incarnations) and copying resumes from the watermark; records that
// landed after the last durable chunk record are re-put, which is
// idempotent. The controller starts in StateBackfill, or StateCutover
// when the watermark already covers every record.
func ResumeLive(ds *backend.Dataset, s Store, build, drop []*schema.Index, cursor int, put PutFunc, opts LiveOptions) (*Live, error) {
	l, err := open(ds, s, build, drop, put, opts, true)
	if err != nil {
		return nil, err
	}
	l.cursor = min(max(cursor, 0), len(l.records))
	l.state = StateBackfill
	if l.cursor == len(l.records) {
		l.state = StateCutover
	}
	return l, nil
}

// Building returns the names of the families this migration is
// materializing; the caller forwards writes to them (dual-writes)
// until the migration finishes or aborts.
func (l *Live) Building() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state == StateDone || l.state == StateAborted {
		return nil
	}
	out := make([]string, len(l.created))
	copy(out, l.created)
	return out
}

// NoteExternalFault charges one failed operation that happened outside
// Step — a dual-write that exhausted its retries — against the fault
// budget. The budget is only evaluated at the next Step, so a client
// statement never observes the abort directly.
func (l *Live) NoteExternalFault() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.extern++
}

// Abort rolls the migration back: every family it created is dropped
// and the state becomes StateAborted. The old schema is untouched and
// keeps serving. Aborting is a no-op once the migration is finished or
// past the point of no return (StateCutover onward — the caller may
// already be serving from the new families). The registered OnAbort
// hook fires with the rollback, so a harness driving the migration
// stops dual-write forwarding atomically. A simulated crash at the
// abort-intent journal append is swallowed here (the process is dead;
// every later operation on the crashed incarnation fails anyway).
func (l *Live) Abort() {
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.abortLocked()
}

// abortLocked writes the abort intent to the journal, rolls back, and
// fires the OnAbort hook. A crash at the intent append returns the
// crash error without rolling back — recovery reads the journal and,
// finding no abort intent, treats the migration as in-flight.
func (l *Live) abortLocked() error {
	if l.state != StateDualWrite && l.state != StateBackfill {
		return nil
	}
	// Intent-log the abort BEFORE dropping anything: recovery must
	// distinguish "rollback may be half done, finish it" (intent
	// present) from "migration was in flight" (no intent).
	if _, err := l.journalLocked(journal.Record{Kind: journal.KindState, State: uint8(StateAborted)}); err != nil {
		return err
	}
	l.rollbackLocked()
	l.state = StateAborted
	if l.onAbort != nil {
		fn := l.onAbort
		l.onAbort = nil
		fn(append([]string(nil), l.created...))
	}
	return nil
}

// rollbackLocked drops every family this migration created.
func (l *Live) rollbackLocked() {
	for _, name := range l.created {
		l.store.Drop(name)
	}
	l.res.Built = nil
}

// State returns the current state.
func (l *Live) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Progress returns a point-in-time view of the migration.
func (l *Live) Progress() Progress {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Progress{
		State:         l.state,
		CopiedRecords: l.cursor,
		TotalRecords:  len(l.records),
		Faults:        l.faults + l.extern,
		Budget:        l.opts.FaultBudget,
		SimMillis:     l.res.SimMillis,
	}
}

// Result returns the migration's ledger. Meaningful once the state is
// StateDone (families built and dropped) or StateAborted (Built empty:
// the rollback discarded them).
func (l *Live) Result() Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	res := l.res
	res.Built = append([]string(nil), l.res.Built...)
	res.Dropped = append([]string(nil), l.res.Dropped...)
	return res
}

// Step advances the migration by one bounded unit of work:
//
//   - StateDualWrite: transition to StateBackfill (no records move).
//   - StateBackfill: copy up to ChunkRecords records through the
//     injected PutFunc. A failed put charges its simulated time and one
//     fault, does not advance the cursor (the record retries next
//     Step), and ends the chunk early.
//   - StateCutover: transition to StateDrop. The caller must have
//     performed its atomic plan swap before this Step (see StateCutover).
//   - StateDrop: discard the superseded families, transition to
//     StateDone.
//
// Before any work, external faults reported since the last Step are
// folded into the fault ledger; if the total exceeds the budget while
// the migration is still abortable (before StateCutover) it aborts —
// every created family is dropped, the state becomes StateAborted, and
// Step returns ErrAborted. Step on a done or aborted controller is a
// no-op (an aborted controller keeps returning ErrAborted).
func (l *Live) Step() (sr StepResult, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer func() { sr.State = l.state }()

	switch l.state {
	case StateDone:
		return sr, nil
	case StateAborted:
		return sr, ErrAborted
	}

	// Fold in dual-write failures and re-check the budget first: a
	// budget breach aborts before more work is spent. Past backfill the
	// budget can no longer abort (see State) — faults stay counted but
	// the migration finishes.
	sr.Faults += l.extern
	l.faults += l.extern
	l.extern = 0
	if l.overBudgetLocked() && (l.state == StateDualWrite || l.state == StateBackfill) {
		err = l.abortStepLocked(&sr)
		return sr, err
	}

	switch l.state {
	case StateDualWrite:
		err = l.enterLocked(&sr, StateBackfill)
	case StateBackfill:
		for sr.Copied < l.opts.ChunkRecords && l.cursor < len(l.records) {
			rec := l.records[l.cursor]
			ms, err := l.put(rec.cf, rec.partition, rec.clustering, rec.values)
			sr.SimMillis += ms
			l.res.SimMillis += ms
			if err != nil {
				// A crash below the backfill put (e.g. in the replica
				// coordinator's handoff path) is not a fault to retry:
				// the process is dead and the error surfaces.
				if faults.IsCrash(err) {
					return sr, err
				}
				// The cursor stays put: this record is retried by the
				// next Step, so a record never lands zero times and
				// the copy is exact-once per family snapshot.
				l.faults++
				sr.Faults++
				if l.overBudgetLocked() {
					err = l.abortStepLocked(&sr)
					return sr, err
				}
				break
			}
			l.cursor++
			sr.Copied++
			l.res.Records++
		}
		// Durable watermark: records copied this chunk survive a crash
		// from here on; a crash at the append itself loses only this
		// chunk's watermark and recovery re-copies it (idempotent).
		if sr.Copied > 0 {
			if err := l.journalStepLocked(&sr, journal.Record{Kind: journal.KindChunk, Cursor: uint64(l.cursor)}); err != nil {
				return sr, err
			}
		}
		if l.cursor == len(l.records) {
			err = l.enterLocked(&sr, StateCutover)
		}
	case StateCutover:
		err = l.enterLocked(&sr, StateDrop)
	case StateDrop:
		for _, name := range l.drop {
			l.store.Drop(name)
			l.res.Dropped = append(l.res.Dropped, name)
		}
		l.res.Built = append([]string(nil), l.created...)
		err = l.enterLocked(&sr, StateDone)
	}
	return sr, err
}

// journalStepLocked journals on behalf of a Step, charging the append
// to the step as well as to the migration.
func (l *Live) journalStepLocked(sr *StepResult, r journal.Record) error {
	ms, err := l.journalLocked(r)
	sr.SimMillis += ms
	return err
}

// enterLocked moves a Step to the next state and journals the
// transition.
func (l *Live) enterLocked(sr *StepResult, to State) error {
	l.state = to
	sr.Transitioned = true
	return l.journalStepLocked(sr, journal.Record{Kind: journal.KindState, State: uint8(to)})
}

// abortStepLocked rolls the migration back from inside a Step and
// returns what the Step reports: ErrAborted, or the crash that hit the
// abort-intent append.
func (l *Live) abortStepLocked(sr *StepResult) error {
	if err := l.abortLocked(); err != nil {
		return err
	}
	sr.Transitioned = true
	return ErrAborted
}

func (l *Live) overBudgetLocked() bool {
	return l.opts.FaultBudget >= 0 && l.faults > l.opts.FaultBudget
}
