// Package harness wires a recommendation, a dataset, and the simulated
// record store into a runnable system, and executes statements and
// whole transactions against it while accounting simulated response
// time. The evaluation harnesses for paper Figs. 11 and 12 run one
// System per schema under comparison. A System is declared as a Config
// and built by New, which stacks its layers once (config.go).
//
// A statement runs its one recommended plan. The executor retries
// retryable faults; a fault that outlives its retries — a column family
// inside an injected down window, or marked down through Faults — fails
// the statement with ErrUnavailable rather than an opaque error, and
// every retry and unavailability is counted in the system's registry
// (see Obs). Paper §V's phase 2 keeps as few column families as the
// optimal cost allows, so a recommended schema rarely holds a second
// way to answer a query.
package harness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nose/internal/backend"
	"nose/internal/drift"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/journal"
	"nose/internal/migrate"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/search"
	"nose/internal/verify"
	"nose/internal/workload"
)

// ErrUnavailable reports that a statement's plan met a fault that
// outlived the executor's retries: a column family the query reads, or
// one the write maintains, is unreachable. It is the explicit
// degraded-mode outcome — callers can detect it with errors.Is and keep
// serving the rest of the workload.
var ErrUnavailable = errors.New("statement unavailable: a column family it needs is unreachable")

// ErrNoPlan reports that the serving schema has no plan at all for a
// statement — the schema was never advised for it. For a query that
// means no column family can answer it; for a write it means no column
// family stores the written entity, so the data would silently vanish.
// Distinct from ErrUnavailable (a plan exists but its family is down):
// ErrNoPlan means the statement cannot be served until a migration
// installs a schema that covers it. Callers can detect it with
// errors.Is and count the statement as lost.
var ErrNoPlan = errors.New("no plan for statement")

// planTable is one immutable snapshot of the plans a system serves.
// Statement execution reads the whole table through a single atomic
// load, and adopting a recommendation swaps the pointer — so a plan
// cutover is atomic and execution never observes a half-adopted
// recommendation.
type planTable struct {
	rec        *search.Recommendation
	queryPlans map[workload.Statement]*planner.Plan
	writeRecs  map[workload.Statement][]*search.UpdateRecommendation
}

// System is one installed schema with its recommended plans.
type System struct {
	// Name labels the system in reports (e.g. "NoSE", "Normalized").
	Name string
	// Store holds the installed column families; nil for replicated
	// systems (see Repl).
	Store *backend.Store
	// Repl holds the installed column families of a replicated system
	// (Config.Replication); nil for single-store systems.
	Repl *backend.ReplicatedStore
	// Coord drives Repl with quorum consistency; nil for single-store
	// systems.
	Coord *executor.Coordinator
	// Exec executes plans against the layer stack New built; the stack
	// and Exec's compiled-program memo live as long as the system.
	Exec *executor.Executor

	plans atomic.Pointer[planTable]

	// What Config declared, nil where it declared nothing: the family and
	// node fault injectors, the migration journal and the invariant
	// oracle.
	inj      *faults.Injector
	nodeInj  *faults.Nodes
	jr       *journal.Journal
	verifier *verify.Verifier

	// live is the background migration in progress, nil when idle; det
	// is the attached drift detector, nil unless EnableDrift ran.
	live atomic.Pointer[liveMigration]
	det  atomic.Pointer[drift.Detector]

	mu         sync.Mutex
	pendingMix map[string]float64
	robust     robustCounters

	// reg collects every layer's metrics for this system: the store (or
	// all replica node stores), the coordinator, the executor, the fault
	// injectors, and the harness's own statement outcomes.
	reg *obs.Registry

	traceMu     sync.Mutex
	tracer      *obs.Tracer
	traceTid    int
	traceCursor float64
}

// Rec returns the recommendation the system currently serves. It reads
// the atomically-swapped plan table, so it is safe to call while a
// background migration cuts over.
func (s *System) Rec() *search.Recommendation { return s.plans.Load().rec }

// Obs returns the system's metric registry — the one ledger of what the
// system endured: every layer New stacked counts into it (store.*,
// coord.*, exec.*, faults.*, nodefaults.*), next to the harness's own
// statement outcomes and migration work (harness.*). Callers read it by
// name or merge it into a run-wide registry with Registry.Merge; the
// per-system counters are scheduling-invariant, so merged totals are
// identical at any worker count.
func (s *System) Obs() *obs.Registry { return s.reg }

// robustCounters pre-binds the harness.* statement-outcome instruments:
// record runs once per statement, so it adds to handles rather than
// looking names up. Outcomes from concurrent goroutines aggregate by
// atomic addition.
type robustCounters struct {
	statements         *obs.Counter
	unavailable        *obs.Counter
	degradedStatements *obs.Counter
	degradedSimMs      *obs.Gauge
	statementLat       *obs.Histogram
}

// newRobustCounters binds the harness.* instruments in a registry.
func newRobustCounters(r *obs.Registry) robustCounters {
	return robustCounters{
		statements:         r.Counter("harness.statements"),
		unavailable:        r.Counter("harness.unavailable"),
		degradedStatements: r.Counter("harness.degraded_statements"),
		degradedSimMs:      r.Gauge("harness.degraded_sim_ms"),
		statementLat:       r.Histogram("harness.statement.sim_ms"),
	}
}

// record books one statement execution's outcome: a statement that
// completed after a retry is degraded, and its simulated time adds to
// harness.degraded_sim_ms.
func (c *robustCounters) record(millis float64, unavailable, degraded bool) {
	c.statements.Inc()
	c.statementLat.Observe(millis)
	if unavailable {
		c.unavailable.Inc()
	}
	if degraded {
		c.degradedStatements.Inc()
		c.degradedSimMs.Add(millis)
	}
}

// EnableTrace emits one Chrome-trace event per executed statement onto
// the tracer's simulated-clock timeline: events for this system land on
// lane tid (named after the system), laid end to end on a simulated
// time cursor, so the trace shows where simulated response time went.
func (s *System) EnableTrace(t *obs.Tracer, tid int, lane string) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.tracer = t
	s.traceTid = tid
	s.traceCursor = 0
	t.NameThread(tid, lane)
}

// traceStatement appends one statement's simulated duration to the
// system's trace lane.
func (s *System) traceStatement(st workload.Statement, ms float64, err error) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if s.tracer == nil {
		return
	}
	start := s.traceCursor
	s.traceCursor += ms
	var args map[string]any
	if err != nil {
		args = map[string]any{"error": err.Error()}
	}
	s.tracer.SimEvent(workload.Label(st), "statement", s.traceTid, start, ms, args)
}

// adoptRecommendation swaps the system onto a recommendation's schema
// and plans with one atomic pointer store: every subsequent statement
// executes the new plans, and statements in flight finish on the table
// they loaded. The caller is responsible for the store actually holding
// the new schema's column families (NewSystem installs them; Migrate
// builds the delta; a live migration backfills them before cutting
// over).
func (s *System) adoptRecommendation(rec *search.Recommendation) {
	pt := &planTable{
		rec:        rec,
		queryPlans: map[workload.Statement]*planner.Plan{},
		writeRecs:  map[workload.Statement][]*search.UpdateRecommendation{},
	}
	for _, qr := range rec.Queries {
		pt.queryPlans[qr.Statement.Statement] = qr.Plan
	}
	for _, ur := range rec.Updates {
		st := ur.Statement.Statement
		pt.writeRecs[st] = append(pt.writeRecs[st], ur)
	}
	s.plans.Store(pt)
}

// Migrate moves the running system to the next phase of a schema
// series inside one call: a live migration (see StartLiveMigration)
// stepped to completion on the spot. What sets it apart is the write
// path of the copy — the store's own bulk-load put, charged at the
// store's simulated service time, instead of the executor: no
// coordinator, no fault injector, no retries, so the first failed put
// rolls the whole migration back, and nothing is journaled. Statements
// may overlap the call as they overlap a background migration (dual
// writes are armed for its duration); it refuses while another
// migration holds the system.
//
// The result carries the simulated milliseconds consumed, every put
// plus each built family's setup charge (migrate.DefaultCostParams);
// they also land on the system's trace lane as one event and in the
// harness.migration* instruments — not harness.live.*, which book
// background migrations only.
func (s *System) Migrate(ds *backend.Dataset, pr *search.PhaseRecommendation) (*migrate.Result, error) {
	fail := func(err error) (*migrate.Result, error) {
		return nil, fmt.Errorf("harness: %s: migrate to phase %q: %w", s.Name, phaseName(pr), err)
	}
	store := s.migrateStore()
	var putErr error
	put := func(cf string, partition, clustering, values []backend.Value) (float64, error) {
		// The executor's tap acknowledges a background backfill's puts
		// to the verifier; this copy bypasses the executor, and a write
		// the verifier never saw would read as a lost one where it lands
		// on an overlapping statement's dual write.
		ms, err := verify.AckPut(s.verifier, store.Write, cf, partition, clustering, values)
		if err != nil {
			putErr = err
		}
		return ms, err
	}
	lm, err := s.beginLive(ds, pr, put, migrate.LiveOptions{}, nil)
	if err != nil {
		return fail(err)
	}
	for lm.ctrl.State() != migrate.StateDone {
		sr, err := lm.ctrl.Step()
		if err == nil && putErr != nil {
			lm.ctrl.Abort()
			err = putErr
		}
		if err != nil {
			return fail(err)
		}
		if sr.State == migrate.StateCutover && sr.Transitioned {
			s.cutover(lm)
		}
	}
	s.retire(lm)
	res := lm.ctrl.Result()

	s.reg.Counter("harness.migrations").Inc()
	s.reg.Counter("harness.migration_families_built").Add(int64(len(res.Built)))
	s.reg.Counter("harness.migration_families_dropped").Add(int64(len(res.Dropped)))
	s.reg.Counter("harness.migration_records").Add(int64(res.Records))
	s.reg.Gauge("harness.migration_sim_ms").Add(res.SimMillis)
	s.traceSpan("migrate -> "+phaseName(pr), "migration", res.SimMillis,
		map[string]any{"built": len(res.Built), "dropped": len(res.Dropped), "records": res.Records})
	return &res, nil
}

func phaseName(pr *search.PhaseRecommendation) string {
	if pr.Phase == nil {
		return "workload"
	}
	return pr.Phase.Name
}

// EnableQueues attaches per-node FIFO service queues with the given
// per-node capacity (parallel servers) to a replicated system's
// coordinator and returns them. Once attached, every replica-level
// operation is charged its queue delay into statement SimMillis on top
// of service cost; a driver (internal/load) advances the queues'
// arrival clock with NodeQueues.SetNow per statement. Panics on a
// single-store system — service contention is modeled per node.
func (s *System) EnableQueues(capacity int) *backend.NodeQueues {
	if s.Repl == nil || s.Coord == nil {
		panic("harness: EnableQueues on a non-replicated system; use NewReplicatedSystem")
	}
	q := backend.NewNodeQueues(s.Repl.NodeCount(), capacity)
	q.SetObs(s.reg)
	s.Coord.SetQueues(q)
	return q
}

// VerifyCheck runs the declared verifier's invariants against the
// system's current store state. The expected family set is the serving
// schema's indexes plus anything an in-flight live migration is
// building or still holding for its drop phase.
func (s *System) VerifyCheck() (*verify.Report, error) {
	if s.verifier == nil {
		return nil, fmt.Errorf("harness: %s: VerifyCheck without Config.Verifier", s.Name)
	}
	expected := map[string]bool{}
	for _, x := range s.Rec().Schema.Indexes() {
		expected[x.Name] = true
	}
	if lm := s.live.Load(); lm != nil {
		for _, name := range lm.ctrl.Building() {
			expected[name] = true
		}
		for _, x := range lm.pr.Drop {
			expected[x.Name] = true
		}
	}
	var reader verify.Reader
	if s.Repl != nil {
		reader = verify.ReplicatedReader{Repl: s.Repl}
	} else {
		reader = verify.StoreReader{Store: s.Store}
	}
	return s.verifier.Check(reader, expected)
}

// MarkNodeDown takes a whole node out of service on a replicated
// system: every replica operation against it fails Unavailable until
// MarkNodeUp, and its missed writes queue as hints. Requires
// Config.NodeWeather.
func (s *System) MarkNodeDown(node int) error {
	if s.nodeInj == nil {
		return fmt.Errorf("harness: MarkNodeDown(%d): node faults not enabled", node)
	}
	return s.nodeInj.MarkDown(node)
}

// MarkNodeUp returns a node to service.
func (s *System) MarkNodeUp(node int) error {
	if s.nodeInj == nil {
		return fmt.Errorf("harness: MarkNodeUp(%d): node faults not enabled", node)
	}
	return s.nodeInj.MarkUp(node)
}

// ExecStatement executes one workload statement with the given
// parameters, returning the simulated response time in milliseconds.
// On error the returned time still carries the simulated work consumed
// (failed plan attempts, retries, backoff), so degraded executions are
// costed rather than hidden.
func (s *System) ExecStatement(st workload.Statement, params executor.Params) (float64, error) {
	ms, err := s.execStatement(st, params)
	s.observeDrift(st)
	s.traceStatement(st, ms, err)
	return ms, err
}

// execStatement dispatches one statement to its query or write path
// against one consistent plan-table snapshot.
func (s *System) execStatement(st workload.Statement, params executor.Params) (float64, error) {
	pt := s.plans.Load()
	if plan, ok := pt.queryPlans[st]; ok {
		return s.execQuery(st, plan, params)
	}
	if urs, ok := pt.writeRecs[st]; ok {
		return s.execWrite(st, urs, params)
	}
	// A write statement the serving schema has no maintenance plan for
	// stores its data in no column family — unless an in-flight live
	// migration's target schema forwards it to the families under
	// construction, in which case the write has landed and succeeds.
	// Otherwise the write is dropped: that is a lost transaction, not a
	// free one.
	if _, isWrite := st.(workload.WriteStatement); isWrite {
		if ms, forwarded := s.forwardDualWrites(st, params); forwarded {
			return ms, nil
		}
	}
	return 0, fmt.Errorf("harness: system %s: statement %q: %w", s.Name, workload.Label(st), ErrNoPlan)
}

// execQuery runs a query's plan. A fault that survives the executor's
// retries (or is an outright unavailability) makes the query
// unavailable; any other error is a bug or a validation failure.
func (s *System) execQuery(st workload.Statement, plan *planner.Plan, params executor.Params) (float64, error) {
	res, err := s.Exec.RunQuery(plan, params)
	total := res.SimMillis
	if err == nil {
		s.robust.record(total, false, res.Retries > 0)
		return total, nil
	}
	if _, ok := faults.AsFault(err); ok {
		s.robust.record(total, true, false)
		return total, fmt.Errorf("harness: %s: query %q: %w", s.Name, workload.Label(st), ErrUnavailable)
	}
	s.robust.record(total, false, false)
	return total, err
}

// execWrite runs a write statement's maintenance: each maintained
// column family must be written, so a surviving fault degrades to
// ErrUnavailable as it does for a query.
func (s *System) execWrite(st workload.Statement, urs []*search.UpdateRecommendation, params executor.Params) (float64, error) {
	res, err := s.Exec.ExecuteWrite(urs, params)
	total := 0.0
	if res != nil {
		total = res.SimMillis
	}
	if err == nil {
		fms, _ := s.forwardDualWrites(st, params)
		total += fms
		s.robust.record(total, false, res.Retries > 0)
		return total, nil
	}
	if _, ok := faults.AsFault(err); ok {
		s.robust.record(total, true, false)
		return total, fmt.Errorf("harness: %s: write %q: %w (%v)", s.Name, workload.Label(st), ErrUnavailable, err)
	}
	s.robust.record(total, false, false)
	return total, err
}

// ExecTransaction executes a group of statements as one user
// transaction and returns the total simulated response time. On error
// the returned time carries the work consumed before (and during) the
// failure.
func (s *System) ExecTransaction(statements []workload.Statement, params executor.Params) (float64, error) {
	total := 0.0
	for _, st := range statements {
		ms, err := s.ExecStatement(st, params)
		total += ms
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
