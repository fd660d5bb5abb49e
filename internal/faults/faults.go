// Package faults injects deterministic, seeded failures into a
// simulated record store. The target systems of the paper — Cassandra
// and its relatives — routinely surface transient replica errors,
// coordinator timeouts, and temporarily unavailable partitions; the
// injector reproduces those conditions on top of any backend.KVBackend
// so the harness can measure how gracefully a recommended schema
// degrades.
//
// Every column family gets its own random stream seeded from the
// injector seed and the family name, and exactly one draw is consumed
// per operation, so a fixed seed and operation sequence always yields
// the same faults. Faults are classified by Kind: transient errors and
// timeouts are worth retrying, while an unavailable column family stays
// down for a window of operations and calls for plan-level failover
// instead.
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
	// within the window cannot succeed; callers should fail over to a
	// plan that avoids the family.
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
// needs to pick between retry and failover, and the simulated time the
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

// Profile describes the fault behavior of one column family. Rates are
// per-operation probabilities and must sum to at most 1.
type Profile struct {
	// TransientRate is the probability of a transient replica error.
	TransientRate float64
	// TimeoutRate is the probability of a request timeout.
	TimeoutRate float64
	// UnavailableRate is the probability that an operation opens an
	// unavailability window covering the next UnavailableOps operations
	// against the family.
	UnavailableRate float64
	// UnavailableOps is the window length in operations; zero means
	// DefaultUnavailableOps.
	UnavailableOps int
	// LatencyFactor multiplies the service time of successful
	// operations (latency inflation for a degraded but serving family);
	// zero or one means no inflation.
	LatencyFactor float64
}

// DefaultUnavailableOps is the unavailability window length a profile
// gets when it names none.
const DefaultUnavailableOps = 25

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
	if p.UnavailableOps <= 0 {
		p.UnavailableOps = DefaultUnavailableOps
	}
	if p.LatencyFactor <= 0 {
		p.LatencyFactor = 1
	}
	return p
}

// Rate builds a mixed profile from one overall fault rate: mostly
// transient errors, some timeouts, and a small chance of opening an
// unavailability window — the blend a flaky replica set produces.
func Rate(rate float64) Profile {
	return Profile{
		TransientRate:   0.7 * rate,
		TimeoutRate:     0.2 * rate,
		UnavailableRate: 0.1 * rate,
	}
}

// cfState is the per-column-family fault state.
type cfState struct {
	rng        *rand.Rand
	profile    Profile
	hasProfile bool
	ops        int64
	downUntil  int64 // ops counter below which the family is unavailable
	manualDown bool
}

// Injector wraps a KVBackend, injecting faults per column family.
// It is safe for concurrent use.
type Injector struct {
	inner backend.KVBackend

	mu     sync.Mutex
	seed   int64
	def    Profile
	states map[string]*cfState
	fo     faultObs
}

// faultObs holds the injector's instruments — its only counters. They
// start as nil no-op handles; SetObs binds them to a registry.
type faultObs struct {
	ops, transients, timeouts, unavailables *obs.Counter
}

// SetObs routes the injector's fault counters into a registry:
// faults.ops counts every operation seen, failed ones included, and
// faults.transients / faults.timeouts / faults.unavailables the
// injected faults by kind.
func (i *Injector) SetObs(r *obs.Registry) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.fo = faultObs{
		ops:          r.Counter("faults.ops"),
		transients:   r.Counter("faults.transients"),
		timeouts:     r.Counter("faults.timeouts"),
		unavailables: r.Counter("faults.unavailables"),
	}
}

// New wraps inner with a fault injector. With no profiles configured
// the injector is transparent: every operation passes through with its
// service time unchanged.
func New(inner backend.KVBackend, seed int64) *Injector {
	return &Injector{inner: inner, seed: seed, states: map[string]*cfState{}}
}

// SetDefaultProfile applies a profile to every column family without an
// explicit one.
func (i *Injector) SetDefaultProfile(p Profile) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.def = p.normalized()
}

// SetProfile applies a profile to one column family. Production
// declares weather once through harness.Config (SetDefaultProfile); the
// failover tests degrade a single family.
func (i *Injector) SetProfile(cf string, p Profile) {
	i.mu.Lock()
	defer i.mu.Unlock()
	st := i.state(cf)
	st.profile = p.normalized()
	st.hasProfile = true
}

// MarkDown makes every operation against the column family fail
// Unavailable until MarkUp.
func (i *Injector) MarkDown(cf string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.state(cf).manualDown = true
}

// MarkUp clears a MarkDown and any open unavailability window.
func (i *Injector) MarkUp(cf string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	st := i.state(cf)
	st.manualDown = false
	st.downUntil = 0
}

// state returns (creating if needed) the per-family state; callers hold
// i.mu.
func (i *Injector) state(cf string) *cfState {
	st := i.states[cf]
	if st == nil {
		h := fnv.New64a()
		h.Write([]byte(cf))
		st = &cfState{rng: rand.New(rand.NewSource(i.seed ^ int64(h.Sum64())))}
		i.states[cf] = st
	}
	return st
}

// decide consumes exactly one random draw for the operation and returns
// the injected fault, if any, plus the latency factor for a success.
func (i *Injector) decide(cf, op string) (*Error, float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	st := i.state(cf)
	p := st.profile
	if !st.hasProfile {
		p = i.def
	}
	p = p.normalized()
	st.ops++
	i.fo.ops.Inc()

	if st.manualDown || st.ops <= st.downUntil {
		i.fo.unavailables.Inc()
		return &Error{Kind: Unavailable, CF: cf, Op: op, Node: -1, SimMillis: transientMillis}, 1
	}
	// One draw per operation, partitioned into fault bands, keeps the
	// stream deterministic regardless of which band fires.
	r := st.rng.Float64()
	switch {
	case r < p.TransientRate:
		i.fo.transients.Inc()
		return &Error{Kind: Transient, CF: cf, Op: op, Node: -1, SimMillis: transientMillis}, 1
	case r < p.TransientRate+p.TimeoutRate:
		i.fo.timeouts.Inc()
		return &Error{Kind: Timeout, CF: cf, Op: op, Node: -1, SimMillis: timeoutMillis}, 1
	case r < p.TransientRate+p.TimeoutRate+p.UnavailableRate:
		st.downUntil = st.ops + int64(p.UnavailableOps)
		i.fo.unavailables.Inc()
		return &Error{Kind: Unavailable, CF: cf, Op: op, Node: -1, SimMillis: transientMillis}, 1
	}
	return nil, p.LatencyFactor
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
