package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"nose/internal/drift"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/migrate"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/workload"
)

// OnlineConfig parameterizes the online re-advising evaluation: the
// same drifting RUBiS timeline as RunDrift, but compared across three
// strategies that differ in what they are allowed to know and when
// they may change schema:
//
//   - once: advise on the phase-0 mix, never change. Knows only the
//     starting traffic — the honest lower bound for an online system.
//   - oracle: PR 5's AdviseSeries over the declared phases, migrating
//     stop-the-world at every phase boundary. Knows the whole future —
//     the upper bound no online detector can beat.
//   - online: advise on the phase-0 mix, then let a drift detector
//     watch the executed statement mix and, when it fires, re-advise
//     on the observed window mix and migrate in the background with
//     dual writes and bounded backfill chunks interleaved between
//     transactions.
//
// Each drift rate optionally runs twice: once on a plain store and
// once on a replicated cluster with node faults injected, so the live
// migration path is exercised under the weather it was built for.
type OnlineConfig struct {
	// Base configures the dataset, advisor, per-phase execution budget
	// (Executions transactions per phase), and observability exactly as
	// in Fig. 11. Base.Mix is ignored — the drift decides the mixes.
	Base Fig11Config
	// Rates is the sweep of drift rates in [0,1]; empty means
	// DefaultDriftRates.
	Rates []float64
	// Phases is the number of workload phases; minimum (and default)
	// DefaultDriftPhases.
	Phases int
	// Seed drives the transaction schedule shuffle, the parameter
	// sequences, and the fault streams; every strategy sees identical
	// sequences, so comparisons are paired.
	Seed int64
	// FaultRate is the node fault rate for each drift rate's faulted
	// row; 0 skips the faulted rows, negative means
	// DefaultOnlineFaultRate.
	FaultRate float64
	// Detector tunes the drift detector; the zero value takes the
	// drift package defaults.
	Detector drift.Config
	// PenaltyMillis is the SLA penalty charged per transaction lost to
	// unavailability — a query with no surviving plan under faults, or
	// no plan at all because the serving schema was never advised for
	// it. An unanswerable request is not free: the client waits out a
	// timeout and errors. Zero means DefaultOnlinePenaltyMillis;
	// negative disables the penalty.
	PenaltyMillis float64
}

// DefaultOnlineFaultRate is the node fault rate used for the faulted
// rows when the config asks for the default.
const DefaultOnlineFaultRate = 0.02

// DefaultOnlinePenaltyMillis is the default SLA penalty per lost
// transaction — a timeout-scale charge, an order of magnitude above a
// typical served transaction.
const DefaultOnlinePenaltyMillis = 10

// OnlineStrategies orders the compared strategies in every row.
var OnlineStrategies = []string{"once", "oracle", "online"}

// OnlineCell is one strategy's measured totals across one row's
// timeline.
type OnlineCell struct {
	// WorkloadMillis is the summed simulated response time of every
	// completed transaction.
	WorkloadMillis float64
	// MigrationMillis is the summed simulated time of schema changes:
	// initial installation, stop-the-world migrations (oracle), and
	// live backfill work including failed attempts (online).
	MigrationMillis float64
	// Migrations counts schema changes that built at least one family
	// and took effect (for online: reached cutover), initial
	// installation included.
	Migrations int
	// FamiliesBuilt totals the column families those migrations built.
	FamiliesBuilt int
	// Triggers counts drift-detector firings (online only).
	Triggers int
	// Aborts counts live migrations rolled back after exceeding their
	// fault budget (online only).
	Aborts int
	// Unavailable counts transactions lost: no surviving plan under
	// node faults (harness.ErrUnavailable) or no plan at all because
	// the serving schema was never advised for the statement
	// (harness.ErrNoPlan — the cost of serving drifted traffic on a
	// stale schema).
	Unavailable int64
	// PenaltyMillis is the SLA charge for those lost transactions.
	PenaltyMillis float64
}

// TotalMillis is the cell's bottom line: workload plus migration time
// plus the SLA penalties for lost transactions.
func (c OnlineCell) TotalMillis() float64 {
	return c.WorkloadMillis + c.MigrationMillis + c.PenaltyMillis
}

// OnlineRow compares the three strategies at one (drift rate, fault
// mode) point.
type OnlineRow struct {
	// Rate is the drift rate.
	Rate float64
	// Faulted reports whether this row ran on a replicated cluster
	// with node faults injected.
	Faulted bool
	// Cells maps strategy name (see OnlineStrategies) to its
	// measurement.
	Cells map[string]OnlineCell
}

// OnlineResult is the full sweep.
type OnlineResult struct {
	// Rows holds the clean row and, when faults are configured, the
	// faulted row for each drift rate, in Rates order.
	Rows []OnlineRow
	// Phases and Executions echo the run shape; FaultRate is the node
	// fault rate of the faulted rows (0 when they were skipped);
	// PenaltyMillis is the SLA charge per lost transaction.
	Phases        int
	Executions    int
	FaultRate     float64
	PenaltyMillis float64
}

// onlineSchedule builds the deterministic transaction schedule: per
// phase, each transaction gets its largest-remainder share of the
// execution budget, and the resulting instances are shuffled with a
// seeded generator so the statement stream interleaves transaction
// types the way live traffic does (block-ordered execution would feed
// the drift detector windows of a single statement type). The same
// schedule drives every strategy.
func onlineSchedule(txns []*rubis.Transaction, weights []map[string]float64, executions int, seed int64) [][]int {
	out := make([][]int, len(weights))
	for t, pw := range weights {
		counts := apportion(txns, pw, executions)
		var sched []int
		for ti, n := range counts {
			for i := 0; i < n; i++ {
				sched = append(sched, ti)
			}
		}
		rng := rand.New(rand.NewSource(seed + int64(t)))
		rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
		out[t] = sched
	}
	return out
}

// apportion distributes n executions across the transactions in
// proportion to their weights using the largest-remainder method, with
// index order breaking ties — fully deterministic.
func apportion(txns []*rubis.Transaction, w map[string]float64, n int) []int {
	counts := make([]int, len(txns))
	rem := make([]float64, len(txns))
	used := 0
	for ti, txn := range txns {
		exact := w[txn.Name] * float64(n)
		counts[ti] = int(exact)
		rem[ti] = exact - float64(counts[ti])
		used += counts[ti]
	}
	order := make([]int, len(txns))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; used < n && i < len(order); i++ {
		counts[order[i]]++
		used++
	}
	return counts
}

// statementMix converts per-transaction weights to the normalized
// per-statement-label mix the executed traffic will show — each
// transaction instance executes all its statements once.
func statementMix(txns []*rubis.Transaction, w map[string]float64) map[string]float64 {
	mix := map[string]float64{}
	for _, txn := range txns {
		for _, st := range txn.Statements {
			mix[workload.Label(st)] += w[txn.Name]
		}
	}
	return drift.Normalize(mix)
}

// unionMix merges two normalized statement mixes by per-label maximum
// and re-normalizes. The online strategy re-advises on the union of
// the mix its serving schema covers and the observed window mix — a
// ratchet: a statement the system once served stays covered even when
// the latest window happens not to sample it, because a short window
// missing a known-live statement type is sampling noise, not evidence
// the application retired it. The price of the ratchet is honest too:
// views for traffic that genuinely went away are kept and maintained.
func unionMix(a, b map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if v > out[k] {
			out[k] = v
		}
	}
	return drift.Normalize(out)
}

// readviseWorkload builds the workload the online strategy re-advises
// on from a statement mix (the union of served and observed — see
// unionMix). The mix is lifted from statements to transactions first —
// a transaction's weight is the largest observed weight among its
// statements — and then expanded back to every statement of those
// transactions. The lift matters for honesty: a transaction that fails
// mid-way on a no-plan statement never executes its trailing
// statements, so the raw window mix under-represents exactly the
// statements the re-advice most needs to cover; the application,
// however, knows its transactions' full statement sets. Transactions
// the mix never saw get weight zero and are genuinely absent.
func readviseWorkload(w *workload.Workload, txns []*rubis.Transaction, mix map[string]float64) *workload.Workload {
	txw := map[string]float64{}
	for _, txn := range txns {
		for _, st := range txn.Statements {
			if v := mix[workload.Label(st)]; v > txw[txn.Name] {
				txw[txn.Name] = v
			}
		}
	}
	byLabel := statementMix(txns, txw)
	out := workload.New(w.Graph)
	for _, ws := range w.Statements {
		out.Statements = append(out.Statements, &workload.WeightedStatement{
			Statement: ws.Statement,
			Weight:    byLabel[workload.Label(ws.Statement)],
		})
	}
	return out
}

// RunOnline sweeps drift rates over RUBiS and measures advise-once,
// the phase oracle, and the online detector+live-migration loop on
// total simulated cost. Everything is deterministic: the same config
// and seed reproduce the same table at any advisor worker count, which
// is what the CI determinism smoke fingerprints. The expected shape:
// at rate 0 all three strategies tie (the detector never fires); as
// drift grows, online beats once by migrating toward the traffic it
// actually sees, and the oracle bounds online from below because it
// knows the timeline in advance and pays no detection lag.
func RunOnline(cfg OnlineConfig) (*OnlineResult, error) {
	d := DriftConfig{Base: cfg.Base, Rates: cfg.Rates, Phases: cfg.Phases, Seed: cfg.Seed}.withDefaults()
	cfg.Base, cfg.Rates, cfg.Phases, cfg.Seed = d.Base, d.Rates, d.Phases, d.Seed
	if cfg.FaultRate < 0 {
		cfg.FaultRate = DefaultOnlineFaultRate
	}
	if cfg.PenaltyMillis == 0 {
		cfg.PenaltyMillis = DefaultOnlinePenaltyMillis
	} else if cfg.PenaltyMillis < 0 {
		cfg.PenaltyMillis = 0
	}
	f, err := newFixture(cfg.Base)
	if err != nil {
		return nil, err
	}

	sw := f.sweep("online")
	res := &OnlineResult{
		Phases:        cfg.Phases,
		Executions:    cfg.Base.Executions,
		FaultRate:     cfg.FaultRate,
		PenaltyMillis: cfg.PenaltyMillis,
	}
	for _, rate := range cfg.Rates {
		for _, faulted := range []bool{false, true} {
			if faulted && cfg.FaultRate == 0 {
				continue
			}
			err := sw.cell(fmt.Sprintf("rate=%g faulted=%t", rate, faulted), func(c *cell) error {
				// once and online both start from the phase-0 advice:
				// neither may know the future, so statements with no
				// phase-0 traffic are absent and their views unbuilt —
				// when drift brings them, they are unanswerable
				// (penalized) until a migration covers them. The oracle
				// sees the declared timeline.
				tl, err := newTimeline(f, rate, cfg.Phases, 1)
				if err != nil {
					return err
				}
				run := &onlineRun{
					cfg: cfg, f: f, c: c, tl: tl, faulted: faulted,
					schedule: onlineSchedule(f.txns, tl.weights, cfg.Base.Executions, cfg.Seed),
				}
				row := OnlineRow{Rate: rate, Faulted: faulted, Cells: map[string]OnlineCell{}}
				for _, strategy := range []struct {
					name string
					plan []*search.PhaseRecommendation
					live bool
				}{
					{"once", installOnce(tl.start, cfg.Phases), false},
					{"oracle", tl.series.Phases, false},
					{"online", installOnce(tl.start, cfg.Phases), true},
				} {
					cell, err := run.strategy(strategy.name, strategy.plan, strategy.live)
					if err != nil {
						return fmt.Errorf("%s: %w", strategy.name, err)
					}
					row.Cells[strategy.name] = cell
				}
				res.Rows = append(res.Rows, row)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// onlineRun carries one row's shared inputs: the advised timeline and
// the identical shuffled transaction schedule every strategy is driven
// through.
type onlineRun struct {
	cfg      OnlineConfig
	f        *fixture
	c        *cell
	tl       *timeline
	schedule [][]int
	faulted  bool
}

// system builds one strategy's system: empty schema (the initial
// installation is charged through the migration path), plain store for
// clean rows, replicated QUORUM cluster with node faults for faulted
// rows.
func (r *onlineRun) system(name string) (*harness.System, error) {
	sc := harness.Config{Name: name}
	if r.faulted {
		sc.Replication = &harness.ReplicationConfig{
			Read:  executor.Quorum,
			Write: executor.Quorum,
			Hedge: executor.HedgePolicy{Enabled: true},
		}
		sc.NodeWeather = &harness.NodeWeather{Seed: r.cfg.Seed, Profile: faults.NodeRate(r.cfg.FaultRate)}
	}
	return r.c.system(sc)
}

// phase runs phase t of the schedule against a system: paired
// parameter sequences per transaction type, lost transactions (no
// surviving plan under faults, no plan at all on a stale schema)
// counted and penalized rather than fatal, and an optional between
// callback invoked after every transaction (the online strategy
// advances its background migration there).
func (r *onlineRun) phase(sys *harness.System, cell *OnlineCell, t int, between func() error) error {
	sources := make([]*rubis.ParamSource, len(r.f.txns))
	for ti := range sources {
		sources[ti] = r.f.params(r.cfg.Seed + int64(1000*t+ti))
	}
	for _, ti := range r.schedule[t] {
		millis, lost, err := measure(sys, r.f.txns[ti], 1, sources[ti], harness.ErrUnavailable, harness.ErrNoPlan)
		if err != nil {
			return err
		}
		cell.WorkloadMillis += sum(millis)
		cell.Unavailable += lost
		cell.PenaltyMillis += float64(lost) * r.cfg.PenaltyMillis
		if between != nil {
			if err := between(); err != nil {
				return err
			}
		}
	}
	return nil
}

// onlineDrainSteps bounds the post-workload drain of a still-running
// live migration; hitting the bound is an error, not a truncation.
const onlineDrainSteps = 100_000

// strategy measures one strategy on its own system. plan holds the
// schema changes known ahead: advise-once installs the phase-0 schema
// and never changes it, the phase oracle follows the AdviseSeries
// schedule with a stop-the-world migration at every phase boundary. A
// live strategy also starts on the phase-0 schema, then runs the online
// loop between transactions.
func (r *onlineRun) strategy(name string, plan []*search.PhaseRecommendation, live bool) (OnlineCell, error) {
	var cell OnlineCell
	sys, err := r.system(name)
	if err != nil {
		return cell, err
	}
	var step, between func() error
	if live {
		step, between = r.onlineLoop(sys, &cell)
	}
	err = serve(sys, r.f.ds, plan, &cell, func(t int) error { return r.phase(sys, &cell, t, between) })
	if err != nil {
		return cell, err
	}
	// The workload is over; let an in-flight migration finish (or
	// abort) so its full cost lands in the cell.
	for i := 0; sys.LiveActive(); i++ {
		if i >= onlineDrainSteps {
			return cell, fmt.Errorf("live migration not finished after %d drain steps", onlineDrainSteps)
		}
		if err := step(); err != nil {
			return cell, err
		}
	}
	return cell, nil
}

// onlineLoop arms the online strategy on sys: watch the executed mix,
// and on every drift trigger re-advise on the observed window mix and
// migrate live — dual writes forwarded, backfill interleaved one
// bounded chunk per transaction. step advances an in-flight migration
// by one chunk; between is the per-transaction callback that calls it
// or, with no migration in flight, polls the detector.
func (r *onlineRun) onlineLoop(sys *harness.System, cell *OnlineCell) (step, between func() error) {
	f := r.f
	// servingMix is the traffic mix the serving schema was advised for —
	// the detector's target; knownMix is the ratcheting union of every
	// mix the system has been advised on (see unionMix).
	servingMix := statementMix(f.txns, r.tl.weights[0])
	knownMix := servingMix
	det := drift.New(r.cfg.Detector, servingMix)
	sys.EnableDrift(det)

	// pendingBuild is the family count of the in-flight live migration,
	// booked into the cell only if it reaches cutover.
	pendingBuild := 0
	var pendingMix map[string]float64

	step = func() error {
		sr, err := sys.LiveStep()
		cell.MigrationMillis += sr.SimMillis
		switch {
		case errors.Is(err, migrate.ErrAborted):
			// Full rollback already happened inside the controller: the
			// old schema keeps serving. Point the detector back at the
			// mix that schema was advised for so sustained drift can
			// trigger another attempt after the cooldown.
			cell.Aborts++
			det.SetTarget(servingMix)
		case err != nil:
			return err
		case sr.State == migrate.StateCutover && sr.Transitioned:
			cell.Migrations++
			cell.FamiliesBuilt += pendingBuild
			servingMix = pendingMix
		}
		return nil
	}

	between = func() error {
		if sys.LiveActive() {
			return step()
		}
		mix := sys.TakeDriftTrigger()
		if mix == nil {
			return nil
		}
		cell.Triggers++
		knownMix = unionMix(knownMix, mix)
		rec, err := search.Advise(readviseWorkload(f.w, f.txns, knownMix), f.advisor)
		if err != nil {
			return fmt.Errorf("re-advise: %w", err)
		}
		build, drop := migrate.Diff(sys.Rec().Schema, rec.Schema)
		det.SetTarget(mix)
		if len(build) == 0 && len(drop) == 0 {
			// The observed mix does not change the schema: adopt the new
			// target and move on — no migration to run.
			servingMix = mix
			return nil
		}
		if _, err := sys.StartLiveMigration(f.ds, &search.PhaseRecommendation{Rec: rec, Build: build, Drop: drop},
			migrate.LiveOptions{Params: migrate.DefaultCostParams()}); err != nil {
			return err
		}
		pendingBuild = len(build)
		pendingMix = mix
		return nil
	}
	return step, between
}

// Format renders the sweep as a comparison table; its exact bytes are
// the determinism fingerprint the CI smoke compares across worker
// counts.
func (r *OnlineResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "online sweep: %d phases, %d transactions/phase, node fault rate %g, %g ms penalty per lost transaction\n",
		r.Phases, r.Executions, r.FaultRate, r.PenaltyMillis)
	fmt.Fprintf(&b, "%-6s %-7s | %11s %6s | %11s %6s | %11s %9s %6s %5s %6s | %7s\n",
		"rate", "faults",
		"once-total", "lost",
		"orcl-total", "lost",
		"onln-total", "onln-mig", "lost", "trig", "abort",
		"winner")
	for _, row := range r.Rows {
		once, oracle, online := row.Cells["once"], row.Cells["oracle"], row.Cells["online"]
		winner := "once"
		best := once.TotalMillis()
		if oracle.TotalMillis() < best {
			winner, best = "oracle", oracle.TotalMillis()
		}
		if online.TotalMillis() < best {
			winner = "online"
		}
		mode := "off"
		if row.Faulted {
			mode = "on"
		}
		fmt.Fprintf(&b, "%-6.2f %-7s | %11.1f %6d | %11.1f %6d | %11.1f %9.1f %6d %5d %6d | %7s\n",
			row.Rate, mode,
			once.TotalMillis(), once.Unavailable,
			oracle.TotalMillis(), oracle.Unavailable,
			online.TotalMillis(), online.MigrationMillis, online.Unavailable,
			online.Triggers, online.Aborts,
			winner)
	}
	return b.String()
}
