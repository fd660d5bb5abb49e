// Package faults injects deterministic, seeded failures into a
// simulated record store. The target systems of the paper — Cassandra
// and its relatives — routinely surface transient replica errors,
// coordinator timeouts, temporarily unavailable partitions and slow
// machines; this package reproduces those conditions so the harness can
// measure how gracefully a recommended schema degrades.
//
// There is one fault model: a fault domain with its own seeded random
// stream, drawing once per healthy operation against one Profile. Two
// front ends key domains differently. Injector wraps any
// backend.KVBackend and makes each column family a domain; Nodes makes
// each node of a replicated store one. A fixed seed and operation
// sequence always yields the same faults. Faults are classified by
// Kind: transient errors and timeouts are worth retrying, while an
// unavailable domain stays down for a window of operations, so retrying
// inside it cannot help.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"nose/internal/backend"
	"nose/internal/obs"
)

// Kind classifies an injected fault.
type Kind int

const (
	// Transient is a momentary replica error; an immediate retry is
	// likely to succeed.
	Transient Kind = iota
	// Timeout is a request that timed out after timeoutMillis of
	// simulated waiting; retrying after backoff may succeed.
	Timeout
	// Unavailable means the column family is down — either inside an
	// injected unavailability window or marked down explicitly. Retries
	// within the window cannot succeed, so the statement is unavailable.
	Unavailable
)

// String names the kind for error messages and reports.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Timeout:
		return "timeout"
	case Unavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Error is one injected fault, carrying the classification the caller
// needs to decide whether to retry, and the simulated time the
// failed operation consumed before surfacing.
type Error struct {
	// Kind classifies the fault.
	Kind Kind
	// CF is the column family the operation targeted.
	CF string
	// Op names the operation ("get", "put", "delete").
	Op string
	// Node is the simulated node the fault struck, for node-level fault
	// domains (see Nodes); negative when the fault is not attributable
	// to one node (per-family faults, coordinator-level failures).
	Node int
	// SimMillis is the simulated service time wasted on the failed
	// operation (e.g. the full timeout for Timeout faults). Callers
	// must charge it into their response time accounting.
	SimMillis float64
}

// Error implements error.
func (e *Error) Error() string {
	if e.Node >= 0 {
		return fmt.Sprintf("faults: %s on %s %q node %d (%.1fms wasted)", e.Kind, e.Op, e.CF, e.Node, e.SimMillis)
	}
	return fmt.Sprintf("faults: %s on %s %q (%.1fms wasted)", e.Kind, e.Op, e.CF, e.SimMillis)
}

// AsFault extracts an injected fault from an error chain.
func AsFault(err error) (*Error, bool) {
	var fe *Error
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// Retryable reports whether retrying the failed operation can succeed:
// true for transient errors and timeouts, false for unavailability
// (the window outlasts any sane retry loop) and for non-fault errors
// (those are bugs or validation failures, not weather).
func Retryable(err error) bool {
	if fe, ok := AsFault(err); ok {
		return fe.Kind == Transient || fe.Kind == Timeout
	}
	return false
}

// SimCost returns the simulated time a failed operation consumed, zero
// for non-fault errors.
func SimCost(err error) float64 {
	if fe, ok := AsFault(err); ok {
		return fe.SimMillis
	}
	return 0
}

// Profile describes the fault behavior of one fault domain, a column
// family or a node. Rates are per-operation probabilities and must sum
// to at most 1. One draw per healthy operation falls into the
// transient, timeout, down-window and slow-window bands in that order,
// or into none.
type Profile struct {
	// TransientRate is the probability of a transient error.
	TransientRate float64
	// TimeoutRate is the probability of a request timeout.
	TimeoutRate float64
	// DownRate is the probability an operation opens a down window
	// covering the next DownOps operations against the domain.
	DownRate float64
	// DownOps is the down-window length in operations; zero means
	// DefaultDownOps.
	DownOps int
	// SlowRate is the probability an operation opens a slow window
	// covering the next SlowOps operations against the domain.
	SlowRate float64
	// SlowOps is the slow-window length in operations; zero means
	// DefaultSlowOps.
	SlowOps int
	// SlowFactor multiplies service times inside a slow window; zero
	// means DefaultSlowFactor.
	SlowFactor float64
}

// Default window tuning, in operations and service-time multiples.
const (
	DefaultDownOps    = 40
	DefaultSlowOps    = 40
	DefaultSlowFactor = 8.0
)

// Simulated time a failed attempt wastes, in the same abstract
// milliseconds as cost.Params: a timeout runs the full client timeout;
// a transient error, and an attempt refused by a down family or node,
// fail fast.
const (
	timeoutMillis   = 50.0
	transientMillis = 0.5
)

// normalized fills profile defaults.
func (p Profile) normalized() Profile {
	if p.DownOps <= 0 {
		p.DownOps = DefaultDownOps
	}
	if p.SlowOps <= 0 {
		p.SlowOps = DefaultSlowOps
	}
	if p.SlowFactor <= 0 {
		p.SlowFactor = DefaultSlowFactor
	}
	return p
}

// Rate builds a column family's profile from one overall fault rate:
// mostly transient errors, some timeouts, and a small chance of a
// 25-operation down window — the blend a flaky replica set produces.
func Rate(rate float64) Profile {
	return Profile{
		TransientRate: 0.7 * rate,
		TimeoutRate:   0.2 * rate,
		DownRate:      0.1 * rate,
		DownOps:       25,
	}
}

// NodeRate builds a node's profile from one overall fault rate: mostly
// transient errors, some slow windows, and a small chance of a down
// window — the blend a degrading cluster produces.
func NodeRate(rate float64) Profile {
	return Profile{
		TransientRate: 0.6 * rate,
		SlowRate:      0.3 * rate,
		DownRate:      0.1 * rate,
	}
}

// outcome is what one decision did in a domain. Each front end maps
// outcomes to its own counters.
type outcome int

const (
	healthy    outcome = iota
	rejected           // inside a down window, or marked down
	transient          // the transient band
	timedOut           // the timeout band
	downOpened         // the down-window band: this operation fails too
	slowOpened         // the slow-window band: this operation is slow too
	outcomes
)

// fault is the error an outcome surfaces, nil for a success.
func (o outcome) fault(cf, op string, node int) *Error {
	kind, ms := Unavailable, transientMillis
	switch o {
	case healthy, slowOpened:
		return nil
	case transient:
		kind = Transient
	case timedOut:
		kind, ms = Timeout, timeoutMillis
	}
	return &Error{Kind: kind, CF: cf, Op: op, Node: node, SimMillis: ms}
}

// domain is one fault domain's state.
type domain struct {
	rng       *rand.Rand
	profile   *Profile // nil means the front end's default
	ops       int64
	downUntil int64 // ops counter up to which the domain is down
	slowUntil int64 // ops counter up to which the domain is slow
	down      bool  // marked down
}

// newDomain starts a domain on its own seeded stream.
func newDomain(seed int64) *domain {
	return &domain{rng: rand.New(rand.NewSource(seed))}
}

// decide counts one operation against the domain and returns its
// outcome and the latency factor for a success. It draws exactly once
// unless the domain is down, and the bands are a prefix-sum split of
// that draw, so the stream stays deterministic whichever band fires.
func (d *domain) decide(def *Profile) (outcome, float64) {
	p := def
	if d.profile != nil {
		p = d.profile
	}
	d.ops++
	if d.down || d.ops <= d.downUntil {
		return rejected, 1
	}
	factor := 1.0
	if d.ops <= d.slowUntil {
		factor = p.SlowFactor
	}
	r := d.rng.Float64()
	switch {
	case r < p.TransientRate:
		return transient, 1
	case r < p.TransientRate+p.TimeoutRate:
		return timedOut, 1
	case r < p.TransientRate+p.TimeoutRate+p.DownRate:
		d.downUntil = d.ops + int64(p.DownOps)
		return downOpened, 1
	case r < p.TransientRate+p.TimeoutRate+p.DownRate+p.SlowRate:
		d.slowUntil = d.ops + int64(p.SlowOps)
		return slowOpened, p.SlowFactor
	}
	return healthy, factor
}

// setProfile gives d a profile of its own; callers hold the lock.
func (d *domain) setProfile(p Profile) {
	p = p.normalized()
	d.profile = &p
}

// markDown and markUp set and clear a mark-down, markUp closing any open
// down window too; callers hold the lock.
func (d *domain) markDown() { d.down = true }

func (d *domain) markUp() {
	d.down = false
	d.downUntil = 0
}

// model is what both front ends share: the lock over their domains, the
// default profile, and the counters each outcome bumps. The counters
// start as nil no-op handles; SetObs binds them to a registry.
type model struct {
	mu     sync.Mutex
	def    Profile
	ops    *obs.Counter
	counts [outcomes][]*obs.Counter
}

// SetDefaultProfile applies a profile to every domain without an
// explicit one.
func (m *model) SetDefaultProfile(p Profile) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.def = p.normalized()
}

// step decides one operation in d and counts it; callers hold m.mu.
// A fault's latency factor is 1.
func (m *model) step(d *domain, cf, op string, node int) (*Error, float64) {
	m.ops.Inc()
	o, factor := d.decide(&m.def)
	for _, c := range m.counts[o] {
		c.Inc()
	}
	return o.fault(cf, op, node), factor
}

// Injector wraps a KVBackend and makes every column family a fault
// domain, its stream seeded from the injector seed and the family name
// on first use. It is safe for concurrent use.
type Injector struct {
	model
	inner   backend.KVBackend
	seed    int64
	domains map[string]*domain
}

// SetObs routes the injector's fault counters into a registry:
// faults.ops counts every operation seen, failed ones included, and
// faults.transients / faults.timeouts / faults.unavailables the
// injected faults by kind.
func (i *Injector) SetObs(r *obs.Registry) {
	i.mu.Lock()
	defer i.mu.Unlock()
	un := r.Counter("faults.unavailables")
	i.ops = r.Counter("faults.ops")
	i.counts = [outcomes][]*obs.Counter{
		transient:  {r.Counter("faults.transients")},
		timedOut:   {r.Counter("faults.timeouts")},
		rejected:   {un},
		downOpened: {un},
	}
}

// New wraps inner with a fault injector. With no profiles configured
// the injector is transparent: every operation passes through with its
// service time unchanged.
func New(inner backend.KVBackend, seed int64) *Injector {
	return &Injector{inner: inner, seed: seed, domains: map[string]*domain{}}
}

// SetProfile applies a profile to one column family. Production
// declares weather once through harness.Config (SetDefaultProfile); the
// harness tests degrade a single family.
func (i *Injector) SetProfile(cf string, p Profile) {
	i.with(cf, func(d *domain) { d.setProfile(p) })
}

// MarkDown makes every operation against the column family fail
// Unavailable until MarkUp.
func (i *Injector) MarkDown(cf string) { i.with(cf, (*domain).markDown) }

// MarkUp clears a MarkDown and any open down window.
func (i *Injector) MarkUp(cf string) { i.with(cf, (*domain).markUp) }

// with applies f to a family's domain under the lock.
func (i *Injector) with(cf string, f func(*domain)) {
	i.mu.Lock()
	defer i.mu.Unlock()
	f(i.domain(cf))
}

// domain returns (creating if needed) the family's domain; callers hold
// i.mu.
func (i *Injector) domain(cf string) *domain {
	d := i.domains[cf]
	if d == nil {
		h := fnv.New64a()
		h.Write([]byte(cf))
		d = newDomain(i.seed ^ int64(h.Sum64()))
		i.domains[cf] = d
	}
	return d
}

// decide decides one operation against a family: the injected fault, if
// any, plus the latency factor for a success.
func (i *Injector) decide(cf, op string) (*Error, float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.step(i.domain(cf), cf, op, -1)
}

// Def passes through: definitions are client-side metadata, not a
// replica round trip.
func (i *Injector) Def(name string) (backend.ColumnFamilyDef, error) {
	return i.inner.Def(name)
}

// Get implements KVBackend with fault injection.
func (i *Injector) Get(name string, req backend.GetRequest) (*backend.GetResult, error) {
	fe, factor := i.decide(name, "get")
	if fe != nil {
		return nil, fe
	}
	res, err := i.inner.Get(name, req)
	if err == nil && factor != 1 {
		res.SimMillis *= factor
	}
	return res, err
}

// Put implements KVBackend with fault injection.
func (i *Injector) Put(name string, partition, clustering []backend.Value, values []backend.Value) (*backend.PutResult, error) {
	fe, factor := i.decide(name, "put")
	if fe != nil {
		return nil, fe
	}
	res, err := i.inner.Put(name, partition, clustering, values)
	if err == nil && factor != 1 {
		res.SimMillis *= factor
	}
	return res, err
}

// Delete implements KVBackend with fault injection.
func (i *Injector) Delete(name string, partition, clustering []backend.Value) (bool, *backend.PutResult, error) {
	fe, factor := i.decide(name, "delete")
	if fe != nil {
		return false, nil, fe
	}
	existed, res, err := i.inner.Delete(name, partition, clustering)
	if err == nil && factor != 1 {
		res.SimMillis *= factor
	}
	return existed, res, err
}

var _ backend.KVBackend = (*Injector)(nil)
