package faults

import (
	"fmt"

	"nose/internal/obs"
)

// Nodes makes every node of a replicated store a fault domain — the
// whole-machine weather of a cluster: a node goes down (rejecting every
// replica operation for a window), turns slow (inflating every
// operation's service time for a window), or fails individual
// operations. It is safe for concurrent use, and a nil *Nodes is a
// healthy cluster.
type Nodes struct {
	model
	domains []*domain
}

// SetObs routes the node fault counters into a registry:
// nodefaults.ops counts every replica operation seen, rejected ones
// included; nodefaults.flaky the transient failures and timeouts;
// nodefaults.down_rejections the operations refused inside a down
// window or while marked down; nodefaults.{down,slow}_windows the
// windows opened.
func (ns *Nodes) SetObs(r *obs.Registry) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	flaky, rejections := r.Counter("nodefaults.flaky"), r.Counter("nodefaults.down_rejections")
	ns.ops = r.Counter("nodefaults.ops")
	ns.counts = [outcomes][]*obs.Counter{
		transient:  {flaky},
		timedOut:   {flaky},
		rejected:   {rejections},
		downOpened: {r.Counter("nodefaults.down_windows"), rejections},
		slowOpened: {r.Counter("nodefaults.slow_windows")},
	}
}

// NewNodes creates n node fault domains. With no profiles configured
// the set is transparent: every operation passes with its service time
// unchanged.
func NewNodes(seed int64, n int) *Nodes {
	ns := &Nodes{domains: make([]*domain, max(n, 1))}
	for i := range ns.domains {
		// splitmix-style stream separation keeps per-node streams
		// independent of each other and of the per-family injector.
		ns.domains[i] = newDomain(seed ^ int64(uint64(i+1)*0x9e3779b97f4a7c15))
	}
	return ns
}

// SetProfile applies a profile to one node. Production declares weather
// once through harness.Config (SetDefaultProfile); the hedging and
// read-repair tests slow or drop a single node.
func (ns *Nodes) SetProfile(node int, p Profile) error {
	return ns.with(node, func(d *domain) { d.setProfile(p) })
}

// MarkDown makes every operation against the node fail Unavailable
// until MarkUp — a deterministic whole-node outage.
func (ns *Nodes) MarkDown(node int) error {
	return ns.with(node, (*domain).markDown)
}

// MarkUp clears a MarkDown and any open down window on the node.
func (ns *Nodes) MarkUp(node int) error {
	return ns.with(node, (*domain).markUp)
}

// with applies f to a node's domain under the lock. The domain slice
// never changes after NewNodes, so its range is checked unlocked.
func (ns *Nodes) with(node int, f func(*domain)) error {
	if node < 0 || node >= len(ns.domains) {
		return fmt.Errorf("faults: no node %d (have %d)", node, len(ns.domains))
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f(ns.domains[node])
	return nil
}

// Decide consumes the node's fault decision for one replica operation:
// the injected fault if any, and the latency factor to apply to a
// success. Callers (the replica coordinator) charge a returned fault's
// SimMillis into the operation's simulated time.
func (ns *Nodes) Decide(node int, cf, op string) (*Error, float64) {
	if ns == nil {
		return nil, 1
	}
	if node < 0 || node >= len(ns.domains) {
		// An out-of-range node is a wiring bug, not weather; surface it
		// as a permanent rejection so tests catch it immediately.
		return &Error{Kind: Unavailable, CF: cf, Op: op, Node: node}, 1
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.step(ns.domains[node], cf, op, node)
}
