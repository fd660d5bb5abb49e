// Package experiments regenerates the paper's evaluation figures
// (§VII): per-transaction response times under three schemas
// (Fig. 11), weighted response times across workload mixes (Fig. 12),
// and advisor runtime versus workload scale (Fig. 13) — and runs the
// sweeps beyond the paper: chaos, quorum, load, crashchaos, drift and
// online. Absolute numbers come from the simulated record store, so the
// reproduction target is the shape of each figure — which schema wins
// where, and by roughly what factor — not the paper's absolute
// milliseconds.
//
// # Adding a sweep
//
// A sweep is a Run function over four things, all in this file:
//
//   - A fixture: newFixture generates the RUBiS dataset, workload and
//     transactions once per run; advise adds the three compared schemas
//     for a mix, and measureMix runs the mix on one system. A sweep over
//     another application builds its own (see crashchaos's hotel
//     fixture). Either starts its sweep with newSweep.
//   - Cells: the Run function loops over its sweep points in the order
//     the table prints them and hands each to (*sweep).cell with a label
//     such as "rate=0.02 QUORUM". Cells run sequentially. The driver
//     merges the registries of the systems the cell built into the run
//     registry and wraps the cell's error with the experiment and label.
//     The run's registry and tracer are the advisor's: Advisor.Obs and
//     Advisor.Trace are the one place a caller hands a sweep its sinks.
//   - A cell function: it declares what it measures as a harness.Config
//     and builds it through (*cell).system — the one place a harness
//     constructor is called, and where each system gets its own trace
//     lane — runs transactions through measure, and appends its cell to
//     the result.
//     Fresh systems per cell keep cells independent and reproducible in
//     isolation.
//   - A result type holding flat cells that carry their own coordinates
//     (rate, system or level), in the order the table prints them, with
//     a Format method that prints one line per cell, and one row in
//     cmd/nosebench's experiment table.
//
// Sweeps that only call the advisor (fig13, budget, ablation) build no
// system; budget and ablation record a failing variant as a finding
// instead of returning it, so they loop without the driver.
//
// Pin a new sweep before anything else: a row in TestSweepTablesGolden
// (its printed table and its data-plane counters, at workers 1 and 4).
package experiments

import (
	"errors"
	"fmt"
	"slices"

	"nose/internal/backend"
	"nose/internal/baselines"
	"nose/internal/cost"
	"nose/internal/harness"
	"nose/internal/load"
	"nose/internal/obs"
	"nose/internal/rubis"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// paramSeed seeds the transaction parameter stream of every sweep that
// compares systems on one fixed workload: identical sequences per
// system keep the comparison fair and the mutations identical.
const paramSeed = 4242

// sweep drives one experiment's cells in order. It owns what surrounds
// every measurement: the trace lane counter, the merge of each built
// system's registry into the run's, and the error wrap.
type sweep struct {
	name  string           // the experiment, as nosebench spells it
	ds    *backend.Dataset // what built systems load from; nil for advisor-only sweeps
	obs   *obs.Registry    // run registry; nil collects nothing
	trace *obs.Tracer      // run tracer; nil traces nothing
	lanes int              // simulated-clock lanes handed out so far
}

// cell is one sweep point while its cell function runs.
type cell struct {
	sw      *sweep
	label   string
	systems []*harness.System // merged into the run registry when the cell ends
}

// cell runs fn as the sweep's next cell. Every system fn built through
// c.system has its private registry merged into the run registry once
// fn returns — addition commutes, so the totals are independent of cell
// order and of how the advisor split its work — and fn's error comes
// back as "experiments: <experiment> <label>: ...".
func (sw *sweep) cell(label string, fn func(c *cell) error) error {
	c := &cell{sw: sw, label: label}
	err := fn(c)
	for _, sys := range c.systems {
		sw.obs.Merge(sys.Obs())
	}
	if err != nil {
		return fmt.Errorf("experiments: %s %s: %w", sw.name, label, err)
	}
	return nil
}

// system builds the measured system cfg declares — the only place the
// package calls a harness constructor. It fills in what every cell
// shares: the sweep's dataset unless cfg names a surviving store, the
// default latency parameters, and an empty schema for a cell that
// charges the installation through System.Migrate (nil Rec). The system
// gets the sweep's next simulated-clock lane, named "<experiment> <cell
// label> <system name>", and is registered for the merge at the end of
// the cell. A system restarted over a surviving cluster is merged in
// place of the crashed incarnation that built the cluster, whose
// registry died with its process.
func (c *cell) system(cfg harness.Config) (*harness.System, error) {
	if cfg.Rec == nil {
		cfg.Rec = &search.Recommendation{Schema: schema.NewSchema()}
	}
	cfg.Latency = cost.DefaultParams()
	if cfg.Repl != nil {
		c.systems = slices.DeleteFunc(c.systems, func(s *harness.System) bool { return s.Repl == cfg.Repl })
	} else {
		cfg.Dataset = c.sw.ds
	}
	sys, err := harness.New(cfg)
	if err != nil {
		return nil, err
	}
	c.sw.lanes++
	sys.EnableTrace(c.sw.trace, c.sw.lanes, fmt.Sprintf("%s %s %s", c.sw.name, c.label, cfg.Name))
	c.systems = append(c.systems, sys)
	return sys, nil
}

// measure runs n executions of txn on sys, drawing each execution's
// parameters from params, and returns the simulated response time of
// every execution that completed, in order. An execution failing with
// one of the lost errors (harness.ErrUnavailable under faults,
// harness.ErrNoPlan on a stale schema) is the degraded outcome under
// test: it is counted and the rest of the workload still runs. Any
// other error is fatal.
func measure(sys *harness.System, txn *rubis.Transaction, n int, params *rubis.ParamSource, lost ...error) (millis []float64, nLost int64, err error) {
	millis = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ms, err := sys.ExecTransaction(txn.Statements, params.Params(txn.Name))
		switch {
		case err == nil:
			millis = append(millis, ms)
		case isAny(err, lost):
			nLost++
		default:
			return millis, nLost, fmt.Errorf("%s on %s: %w", txn.Name, sys.Name, err)
		}
	}
	return millis, nLost, nil
}

// isAny reports whether err is one of the targets.
func isAny(err error, targets []error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// sum adds up in slice order, so a total is the same float whichever
// sweep computes it.
func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// positive returns v when it is positive and def otherwise: the zero
// value of a count or duration option means its default.
func positive[T int | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// nonEmpty returns v unless it is empty, then def: an empty sweep list
// means the default sweep.
func nonEmpty[T any](v, def []T) []T {
	if len(v) > 0 {
		return v
	}
	return def
}

// newSweep starts the named experiment's sweep over ds, collecting into
// the advisor's registry and tracer so advisor stages and measured
// systems land in the same sinks.
func newSweep(name string, ds *backend.Dataset, advisor search.Options) *sweep {
	return &sweep{name: name, ds: ds, obs: advisor.Obs, trace: advisor.Trace}
}

// fixture is the RUBiS half of a run, built once: the generated
// dataset, the workload and its transactions. advise adds the
// mix-dependent half.
type fixture struct {
	cfg  Fig11Config
	ds   *backend.Dataset
	w    *workload.Workload
	txns []*rubis.Transaction

	// Set by advise: the resolved mix name, the three compared schemas'
	// recommendations by SystemNames entry, the mix's transactions (the
	// others have no plan), and the same as weighted client work.
	mix    string
	recs   map[string]*search.Recommendation
	active []*rubis.Transaction
	work   []load.Transaction
}

// newFixture generates the dataset and workload for cfg.
func newFixture(cfg Fig11Config) (*fixture, error) {
	ds, err := rubis.Generate(cfg.RUBiS)
	if err != nil {
		return nil, err
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		return nil, err
	}
	return &fixture{cfg: cfg, ds: ds, w: w, txns: txns}, nil
}

// newAdvisedFixture is newFixture plus advise for cfg.Mix: what a sweep
// over one mix starts from.
func newAdvisedFixture(cfg Fig11Config) (*fixture, error) {
	f, err := newFixture(cfg)
	if err != nil {
		return nil, err
	}
	return f, f.advise(cfg.Mix)
}

// advise derives the three schemas' recommendations for a workload mix
// (empty means bidding) — the expensive, fault-independent half of
// system construction, shared by every cell of a sweep.
func (f *fixture) advise(mix string) error {
	f.mix = rubis.MixBidding
	if mix != "" {
		f.mix, f.w.ActiveMix = mix, mix
	}
	nose, err := search.Advise(f.w, f.cfg.Advisor)
	if err != nil {
		return fmt.Errorf("experiments: NoSE advise: %w", err)
	}
	normPool, err := baselines.Normalized(f.w)
	if err != nil {
		return err
	}
	norm, err := search.AdvisePinned(f.w, normPool, search.Options{})
	if err != nil {
		return err
	}
	expPool, err := baselines.ExpertRUBiS(f.ds.Graph)
	if err != nil {
		return err
	}
	exp, err := search.AdvisePinned(f.w, expPool, search.Options{})
	if err != nil {
		return err
	}
	f.recs = map[string]*search.Recommendation{"NoSE": nose, "Normalized": norm, "Expert": exp}

	f.active, f.work = nil, nil
	for _, txn := range f.txns {
		weight := rubis.TransactionWeight(txn, f.mix)
		f.work = append(f.work, load.Transaction{Name: txn.Name, Statements: txn.Statements, Weight: weight})
		if weight > 0 {
			f.active = append(f.active, txn)
		}
	}
	return nil
}

// measureMix runs every transaction of the mix on sys, f.cfg.Executions
// times each from the shared parameter stream, and returns the response
// times of the executions that completed, in mix order, and the count
// lost to harness.ErrUnavailable.
func (f *fixture) measureMix(sys *harness.System) (millis []float64, lost int64, err error) {
	for _, txn := range f.active {
		m, l, err := measure(sys, txn, f.cfg.Executions, f.params(paramSeed), harness.ErrUnavailable)
		if err != nil {
			return nil, 0, err
		}
		millis = append(millis, m...)
		lost += l
	}
	return millis, lost, nil
}

// params is a fresh parameter stream at the given seed.
func (f *fixture) params(seed int64) *rubis.ParamSource {
	return rubis.NewParamSource(f.cfg.RUBiS, seed)
}
