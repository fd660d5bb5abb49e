package faults

import (
	"fmt"
	"math/rand"
	"sync"

	"nose/internal/obs"
)

// NodeProfile describes the fault behavior of one simulated storage
// node — the fault domain of a replicated store. Where Profile models
// per-column-family weather, NodeProfile models whole-machine weather:
// a node goes down (rejecting every replica operation for a window),
// turns slow (inflating every operation's service time for a window),
// or is flaky (failing individual operations transiently). Rates are
// per-operation probabilities and must sum to at most 1.
type NodeProfile struct {
	// FlakyRate is the probability one replica operation fails with a
	// transient error.
	FlakyRate float64
	// DownRate is the probability an operation opens a down window
	// covering the next DownOps operations against the node.
	DownRate float64
	// DownOps is the down-window length in operations; zero means
	// DefaultDownOps.
	DownOps int
	// SlowRate is the probability an operation opens a slow window
	// covering the next SlowOps operations against the node.
	SlowRate float64
	// SlowOps is the slow-window length in operations; zero means
	// DefaultSlowOps.
	SlowOps int
	// SlowFactor multiplies service times inside a slow window; zero
	// means DefaultSlowFactor.
	SlowFactor float64
}

// Default node fault tuning, in the cost model's abstract milliseconds.
const (
	DefaultDownOps    = 40
	DefaultSlowOps    = 40
	DefaultSlowFactor = 8.0
)

// normalized fills profile defaults.
func (p NodeProfile) normalized() NodeProfile {
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

// NodeRate builds a mixed node profile from one overall fault rate:
// mostly flaky operations, some slow windows, and a small chance of a
// node-down window — the blend a degrading cluster produces.
func NodeRate(rate float64) NodeProfile {
	return NodeProfile{
		FlakyRate: 0.6 * rate,
		SlowRate:  0.3 * rate,
		DownRate:  0.1 * rate,
	}
}

// nodeState is the per-node fault state.
type nodeState struct {
	rng        *rand.Rand
	profile    NodeProfile
	hasProfile bool
	ops        int64
	downUntil  int64 // ops counter below which the node is down
	slowUntil  int64 // ops counter below which the node is slow
	manualDown bool
}

// Nodes is a set of node-level fault domains for a replicated store:
// one seeded random stream per node, exactly one draw per healthy
// operation, so a fixed seed and operation sequence always yields the
// same faults. It is safe for concurrent use.
type Nodes struct {
	mu     sync.Mutex
	seed   int64
	def    NodeProfile
	states []*nodeState
	no     nodeObs
}

// nodeObs holds the node fault set's instruments — its only counters.
// They start as nil no-op handles; SetObs binds them to a registry.
type nodeObs struct {
	ops, flaky, downRejections, downWindows, slowWindows *obs.Counter
}

// SetObs routes the node fault counters into a registry:
// nodefaults.ops counts every replica operation seen, rejected ones
// included; nodefaults.flaky the transient failures;
// nodefaults.down_rejections the operations refused inside a down
// window or while marked down; nodefaults.{down,slow}_windows the
// windows opened.
func (ns *Nodes) SetObs(r *obs.Registry) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.no = nodeObs{
		ops:            r.Counter("nodefaults.ops"),
		flaky:          r.Counter("nodefaults.flaky"),
		downRejections: r.Counter("nodefaults.down_rejections"),
		downWindows:    r.Counter("nodefaults.down_windows"),
		slowWindows:    r.Counter("nodefaults.slow_windows"),
	}
}

// NewNodes creates n node fault domains. With no profiles configured
// the set is transparent: every operation passes with its service time
// unchanged.
func NewNodes(seed int64, n int) *Nodes {
	if n < 1 {
		n = 1
	}
	ns := &Nodes{seed: seed, states: make([]*nodeState, n)}
	for i := range ns.states {
		// splitmix-style stream separation keeps per-node streams
		// independent of each other and of the per-family injector.
		s := seed ^ int64(uint64(i+1)*0x9e3779b97f4a7c15)
		ns.states[i] = &nodeState{rng: rand.New(rand.NewSource(s))}
	}
	return ns
}

// SetDefaultProfile applies a profile to every node without an explicit
// one.
func (ns *Nodes) SetDefaultProfile(p NodeProfile) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.def = p.normalized()
}

// SetProfile applies a profile to one node. Production declares weather
// once through harness.Config (SetDefaultProfile); the hedging and
// read-repair tests slow or drop a single node.
func (ns *Nodes) SetProfile(node int, p NodeProfile) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	st, err := ns.state(node)
	if err != nil {
		return err
	}
	st.profile = p.normalized()
	st.hasProfile = true
	return nil
}

// MarkDown makes every operation against the node fail Unavailable
// until MarkUp — a deterministic whole-node outage.
func (ns *Nodes) MarkDown(node int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	st, err := ns.state(node)
	if err != nil {
		return err
	}
	st.manualDown = true
	return nil
}

// MarkUp clears a MarkDown and any open down window on the node.
func (ns *Nodes) MarkUp(node int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	st, err := ns.state(node)
	if err != nil {
		return err
	}
	st.manualDown = false
	st.downUntil = 0
	return nil
}

// state returns the per-node state; callers hold ns.mu.
func (ns *Nodes) state(node int) (*nodeState, error) {
	if node < 0 || node >= len(ns.states) {
		return nil, fmt.Errorf("faults: no node %d (have %d)", node, len(ns.states))
	}
	return ns.states[node], nil
}

// Decide consumes the node's fault decision for one replica operation:
// the injected fault if any, and the latency factor to apply to a
// success. Callers (the replica coordinator) charge a returned fault's
// SimMillis into the operation's simulated time.
func (ns *Nodes) Decide(node int, cf, op string) (*Error, float64) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	st, err := ns.state(node)
	if err != nil {
		// An out-of-range node is a wiring bug, not weather; surface it
		// as a permanent rejection so tests catch it immediately.
		return &Error{Kind: Unavailable, CF: cf, Op: op, Node: node, SimMillis: 0}, 1
	}
	p := st.profile
	if !st.hasProfile {
		p = ns.def
	}
	p = p.normalized()
	st.ops++
	ns.no.ops.Inc()

	if st.manualDown || st.ops <= st.downUntil {
		ns.no.downRejections.Inc()
		return &Error{Kind: Unavailable, CF: cf, Op: op, Node: node, SimMillis: transientMillis}, 1
	}
	factor := 1.0
	if st.ops <= st.slowUntil {
		factor = p.SlowFactor
	}
	// One draw per healthy operation, partitioned into fault bands,
	// keeps the stream deterministic regardless of which band fires.
	r := st.rng.Float64()
	switch {
	case r < p.FlakyRate:
		ns.no.flaky.Inc()
		return &Error{Kind: Transient, CF: cf, Op: op, Node: node, SimMillis: transientMillis}, 1
	case r < p.FlakyRate+p.DownRate:
		st.downUntil = st.ops + int64(p.DownOps)
		ns.no.downWindows.Inc()
		ns.no.downRejections.Inc()
		return &Error{Kind: Unavailable, CF: cf, Op: op, Node: node, SimMillis: transientMillis}, 1
	case r < p.FlakyRate+p.DownRate+p.SlowRate:
		st.slowUntil = st.ops + int64(p.SlowOps)
		ns.no.slowWindows.Inc()
		return nil, p.SlowFactor
	}
	return nil, factor
}
