package harness

import (
	"fmt"

	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/obs"
)

// RobustnessReport aggregates everything a system endured while
// serving under faults: the statement-level outcomes tracked by the
// harness, the retry counters of the executor, and the raw fault
// counts of the injector. It quantifies the graceful-degradation claim
// the paper's cost model implies but never measures — index-redundant
// schemas keep more statements answerable when column families fail.
//
// The report is a point-in-time view over the system's metric
// registry (see Obs): the harness books every statement outcome
// through lock-free registry instruments, so concurrent statement
// execution — including node faults overlapping hedged reads — never
// races on shared counters.
type RobustnessReport struct {
	// Statements is the number of statement executions attempted.
	Statements int64
	// Failovers counts plan attempts abandoned for an alternative plan
	// because a column family was down or kept faulting.
	Failovers int64
	// Unavailable counts statement executions that ended in
	// ErrUnavailable: no surviving plan remained.
	Unavailable int64
	// DegradedStatements counts statements that completed but needed
	// at least one retry or failover.
	DegradedStatements int64
	// DegradedMillis is the total simulated response time of those
	// degraded statements — what serving through the weather cost.
	DegradedMillis float64
	// Retries, RetryExhausted, BackoffMillis and WastedMillis are the
	// executor's retry counters.
	Retries        int64
	RetryExhausted int64
	BackoffMillis  float64
	WastedMillis   float64
	// Injected reports the fault injector's raw counts; zero when
	// faults were never enabled.
	Injected faults.Counts
	// Replica reports the quorum coordinator's counters — hedges,
	// hints, read repairs, stale reads — for replicated systems; zero
	// otherwise.
	Replica executor.ReplicaStats
	// NodeFaults reports the node-level fault domains' raw counts;
	// zero when node faults were never enabled.
	NodeFaults faults.NodeCounts
	// Migration reports the live-migration ledger; zero when no
	// background migration ever ran.
	Migration MigrationStats
	// Recovery reports the crash-recovery ledger; zero when Recover
	// never ran on this system.
	Recovery RecoveryStats
}

// RecoveryStats is the crash-recovery slice of a RobustnessReport:
// what replaying the migration journal after simulated crashes decided
// and cost.
type RecoveryStats struct {
	// Attempts counts Recover calls; the outcome counters partition
	// them by decision.
	Attempts, None, Resumed, Completed, RolledBack int64
	// OrphansDropped is the number of families recovery garbage-
	// collected while finishing rollbacks; FamiliesDropped the
	// superseded families dropped while rolling forward.
	OrphansDropped, FamiliesDropped int64
	// SimMillis is the simulated time recovery's journal appends
	// consumed.
	SimMillis float64
}

// MigrationStats is the live-migration slice of a RobustnessReport:
// what changing schema under traffic did and cost.
type MigrationStats struct {
	// Started, CutOver, Completed and Aborted count background
	// migrations by milestone.
	Started, CutOver, Completed, Aborted int64
	// BackfillRecords is the number of records copied into new
	// families; BackfillFaults the failed operations charged against
	// migration fault budgets (backfill put failures plus lost
	// dual-writes).
	BackfillRecords, BackfillFaults int64
	// DualWrites counts statements forwarded to families under
	// construction; DualWriteFailures the forwards that failed after
	// retries.
	DualWrites, DualWriteFailures int64
	// SimMillis is the simulated time migrations consumed (backfill
	// puts including failed attempts, plus per-family setup).
	SimMillis float64
}

// String renders the report as a one-line summary; replicated systems
// get a second line with the coordination ledger.
func (r RobustnessReport) String() string {
	s := fmt.Sprintf("%d statements: %d retries, %d failovers, %d unavailable, %d degraded (%.1f degraded ms)",
		r.Statements, r.Retries, r.Failovers, r.Unavailable, r.DegradedStatements, r.DegradedMillis)
	if r.Replica != (executor.ReplicaStats{}) {
		s += fmt.Sprintf("\nreplication: %d/%d stale reads, %d hints queued, %d replayed, %d read repairs, %d/%d hedge wins",
			r.Replica.StaleReads, r.Replica.Reads, r.Replica.HintsQueued, r.Replica.HintsReplayed,
			r.Replica.ReadRepairs, r.Replica.HedgeWins, r.Replica.Hedges)
	}
	if r.Migration != (MigrationStats{}) {
		s += fmt.Sprintf("\nmigration: %d live (%d cutover, %d aborted), %d records backfilled (%.1f ms), %d dual-writes (%d lost), %d faults",
			r.Migration.Started, r.Migration.CutOver, r.Migration.Aborted,
			r.Migration.BackfillRecords, r.Migration.SimMillis,
			r.Migration.DualWrites, r.Migration.DualWriteFailures, r.Migration.BackfillFaults)
	}
	if r.Recovery != (RecoveryStats{}) {
		s += fmt.Sprintf("\nrecovery: %d attempts (%d resumed, %d rolled forward, %d rolled back, %d no-op), %d orphans dropped",
			r.Recovery.Attempts, r.Recovery.Resumed, r.Recovery.Completed, r.Recovery.RolledBack, r.Recovery.None,
			r.Recovery.OrphansDropped)
	}
	return s
}

// robustCounters is the harness-level half of the report: a handle set
// over the system registry's atomic instruments. Statement outcomes
// from concurrent goroutines aggregate by atomic addition, so the
// counters need no lock of their own.
type robustCounters struct {
	statements         *obs.Counter
	failovers          *obs.Counter
	unavailable        *obs.Counter
	degradedStatements *obs.Counter
	degradedSimMs      *obs.Gauge
	statementLat       *obs.Histogram
}

// newRobustCounters binds the harness.* instruments in a registry.
func newRobustCounters(r *obs.Registry) robustCounters {
	return robustCounters{
		statements:         r.Counter("harness.statements"),
		failovers:          r.Counter("harness.failovers"),
		unavailable:        r.Counter("harness.unavailable"),
		degradedStatements: r.Counter("harness.degraded_statements"),
		degradedSimMs:      r.Gauge("harness.degraded_sim_ms"),
		statementLat:       r.Histogram("harness.statement.sim_ms"),
	}
}

// record books one statement execution's outcome.
func (c *robustCounters) record(millis float64, failovers int64, unavailable, degraded bool) {
	c.statements.Inc()
	c.failovers.Add(failovers)
	c.statementLat.Observe(millis)
	if unavailable {
		c.unavailable.Inc()
	}
	if degraded || failovers > 0 {
		c.degradedStatements.Inc()
		c.degradedSimMs.Add(millis)
	}
}

// Robustness returns the system's cumulative robustness report.
func (s *System) Robustness() RobustnessReport {
	m := s.Exec.Metrics()
	r := RobustnessReport{
		Statements:         s.robust.statements.Value(),
		Failovers:          s.robust.failovers.Value(),
		Unavailable:        s.robust.unavailable.Value(),
		DegradedStatements: s.robust.degradedStatements.Value(),
		DegradedMillis:     s.robust.degradedSimMs.Value(),
		Retries:            m.Retries,
		RetryExhausted:     m.Exhausted,
		BackoffMillis:      m.BackoffMillis,
		WastedMillis:       m.WastedMillis,
	}
	if s.inj != nil {
		r.Injected = s.inj.Counts()
	}
	if s.Coord != nil {
		r.Replica = s.Coord.Stats()
	}
	if s.nodeInj != nil {
		r.NodeFaults = s.nodeInj.Counts()
	}
	r.Migration = MigrationStats{
		Started:           s.reg.Counter("harness.live.started").Value(),
		CutOver:           s.reg.Counter("harness.live.cutovers").Value(),
		Completed:         s.reg.Counter("harness.live.completed").Value(),
		Aborted:           s.reg.Counter("harness.live.aborted").Value(),
		BackfillRecords:   s.reg.Counter("harness.live.backfill_records").Value(),
		BackfillFaults:    s.reg.Counter("harness.live.faults").Value(),
		DualWrites:        s.reg.Counter("harness.live.dual_writes").Value(),
		DualWriteFailures: s.reg.Counter("harness.live.dual_write_failures").Value(),
		SimMillis:         s.reg.Gauge("harness.live.sim_ms").Value(),
	}
	r.Recovery = RecoveryStats{
		Attempts:        s.reg.Counter("harness.recover.attempts").Value(),
		None:            s.reg.Counter("harness.recover.none").Value(),
		Resumed:         s.reg.Counter("harness.recover.resumed").Value(),
		Completed:       s.reg.Counter("harness.recover.completed").Value(),
		RolledBack:      s.reg.Counter("harness.recover.rolled-back").Value(),
		OrphansDropped:  s.reg.Counter("harness.recover.orphans_dropped").Value(),
		FamiliesDropped: s.reg.Counter("harness.recover.families_dropped").Value(),
		SimMillis:       s.reg.Gauge("harness.recover.sim_ms").Value(),
	}
	return r
}
