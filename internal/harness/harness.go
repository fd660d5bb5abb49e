// Package harness wires a recommendation, a dataset, and the simulated
// record store into a runnable system, and executes statements and
// whole transactions against it while accounting simulated response
// time. The evaluation harnesses for paper Figs. 11 and 12 run one
// System per schema under comparison. A System is declared as a Config
// and built by New, which stacks its layers once (config.go).
//
// A System also implements graceful degradation: it keeps every
// query's ranked alternative plans (the planner retains up to
// MaxPlansPerQuery of them), and when a column family is down — marked
// explicitly with MarkDown or discovered through injected faults — it
// fails over to the cheapest surviving plan that avoids the family.
// Statements with no surviving plan fail with ErrUnavailable rather
// than an opaque error, and every retry, failover and unavailability is
// counted in the system's RobustnessReport.
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

// ErrUnavailable reports that no surviving plan can answer a statement:
// every alternative touches a column family that is down, or a write's
// maintained family is unreachable. It is the explicit degraded-mode
// outcome — callers can detect it with errors.Is and keep serving the
// rest of the workload.
var ErrUnavailable = errors.New("statement unavailable: no surviving plan")

// ErrNoPlan reports that the serving schema has no plan at all for a
// statement — the schema was never advised for it. For a query that
// means no column family can answer it; for a write it means no column
// family stores the written entity, so the data would silently vanish.
// Distinct from ErrUnavailable (plans exist but every one is down):
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
	rec *search.Recommendation
	// planLists ranks each query's executable plans for failover: the
	// recommended plan first, then the remaining alternatives cheapest
	// first.
	planLists map[workload.Statement][]*planner.Plan
	writeRecs map[workload.Statement][]*search.UpdateRecommendation
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
	down       map[string]bool
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

// Obs returns the system's private metric registry. Callers merge it
// into a run-wide registry with Registry.Merge; the per-system counters
// are scheduling-invariant, so merged totals are identical at any
// worker count.
func (s *System) Obs() *obs.Registry { return s.reg }

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
		rec:       rec,
		planLists: map[workload.Statement][]*planner.Plan{},
		writeRecs: map[workload.Statement][]*search.UpdateRecommendation{},
	}
	for _, qr := range rec.Queries {
		list := []*planner.Plan{qr.Plan}
		for _, p := range qr.Alternatives {
			if p != qr.Plan {
				list = append(list, p)
			}
		}
		pt.planLists[qr.Statement.Statement] = list
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
// The result carries the simulated milliseconds consumed; they also
// land on the system's trace lane as one event and in the
// harness.migration* instruments — not harness.live.*, which book
// background migrations only.
func (s *System) Migrate(ds *backend.Dataset, pr *search.PhaseRecommendation, p migrate.CostParams) (*migrate.Result, error) {
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
		res, err := s.verifier.AckPut(store.Put, cf, partition, clustering, values)
		if err != nil {
			putErr = err
			return 0, err
		}
		return res.SimMillis, nil
	}
	lm, err := s.beginLive(ds, pr, put, migrate.LiveOptions{Params: p}, nil)
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

// MarkDown takes a column family out of service: query plans touching
// it are skipped in favor of surviving alternatives, and (when faults
// are enabled) operations against it fail Unavailable. Production
// outages come from declared weather; MarkDown and MarkUp are how the
// deterministic failover tests take a named family out and back.
func (s *System) MarkDown(cf string) {
	s.mu.Lock()
	s.down[cf] = true
	s.mu.Unlock()
	if s.inj != nil {
		s.inj.MarkDown(cf)
	}
}

// MarkUp returns a column family to service.
func (s *System) MarkUp(cf string) {
	s.mu.Lock()
	delete(s.down, cf)
	s.mu.Unlock()
	if s.inj != nil {
		s.inj.MarkUp(cf)
	}
}

// downSnapshot copies the down set for one statement execution; nil
// while nothing is down, so a healthy statement allocates no map.
func (s *System) downSnapshot() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.down) == 0 {
		return nil
	}
	avoid := make(map[string]bool, len(s.down))
	for cf := range s.down {
		avoid[cf] = true
	}
	return avoid
}

// planSurvives reports whether a plan touches none of the avoided
// column families.
func planSurvives(p *planner.Plan, avoid map[string]bool) bool {
	if len(avoid) == 0 {
		return true
	}
	for _, x := range p.Indexes() {
		if avoid[x.Name] {
			return false
		}
	}
	return true
}

// pickPlan returns the best untried plan avoiding the down families,
// plus the number of plans it disqualified on the way — each one is a
// failover away from the preferred plan. Disqualified plans are added
// to tried so repeated picks within one statement never recount them
// (the avoid set only grows). tried may be nil while avoid is empty:
// nothing is disqualified then.
func pickPlan(plans []*planner.Plan, avoid map[string]bool, tried map[*planner.Plan]bool) (*planner.Plan, int64) {
	skipped := int64(0)
	for _, p := range plans {
		if tried[p] {
			continue
		}
		if !planSurvives(p, avoid) {
			tried[p] = true
			skipped++
			continue
		}
		return p, skipped
	}
	return nil, skipped
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
	if plans, ok := pt.planLists[st]; ok {
		return s.execQuery(st, plans, params)
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

// execQuery runs a query with plan-level failover: each plan attempt
// that dies on a surviving fault disqualifies the fault's column family
// and reroutes to the cheapest remaining plan that avoids every down
// family.
func (s *System) execQuery(st workload.Statement, plans []*planner.Plan, params executor.Params) (float64, error) {
	// Both sets stay nil until a family is down or a fault survives the
	// executor's retries.
	avoid := s.downSnapshot()
	var tried map[*planner.Plan]bool
	if avoid != nil {
		tried = map[*planner.Plan]bool{}
	}
	total := 0.0
	failovers, retries := int64(0), int64(0)
	for {
		plan, skipped := pickPlan(plans, avoid, tried)
		failovers += skipped
		if plan == nil {
			s.robust.record(total, failovers, true, false)
			return total, fmt.Errorf("harness: %s: query %q: %w", s.Name, workload.Label(st), ErrUnavailable)
		}
		res, err := s.Exec.ExecuteQuery(plan, params)
		if res != nil {
			total += res.SimMillis
			retries += res.Retries
		}
		if err == nil {
			s.robust.record(total, failovers, false, retries > 0)
			return total, nil
		}
		fe, ok := faults.AsFault(err)
		if !ok {
			// Not store weather: a bug or a validation failure.
			s.robust.record(total, failovers, false, failovers > 0)
			return total, err
		}
		// The fault survived the executor's retries (or is an outright
		// unavailability): take the family out of this execution's
		// rotation and fail over.
		if tried == nil {
			avoid, tried = map[string]bool{}, map[*planner.Plan]bool{}
		}
		tried[plan] = true
		avoid[fe.CF] = true
		failovers++
	}
}

// execWrite runs a write statement's maintenance. Writes have no
// alternative plans — each maintained column family must be written —
// so a surviving fault degrades to ErrUnavailable instead of failing
// over.
func (s *System) execWrite(st workload.Statement, urs []*search.UpdateRecommendation, params executor.Params) (float64, error) {
	res, err := s.Exec.ExecuteWrite(urs, params)
	total := 0.0
	if res != nil {
		total = res.SimMillis
	}
	if err == nil {
		fms, _ := s.forwardDualWrites(st, params)
		total += fms
		s.robust.record(total, 0, false, res.Retries > 0)
		return total, nil
	}
	if _, ok := faults.AsFault(err); ok {
		s.robust.record(total, 0, true, false)
		return total, fmt.Errorf("harness: %s: write %q: %w (%v)", s.Name, workload.Label(st), ErrUnavailable, err)
	}
	s.robust.record(total, 0, false, false)
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
