// Package obs is the repo's observability substrate: named counters,
// gauges, and fixed-bucket latency histograms collected in a Registry,
// plus lightweight span tracing (see trace.go). It has no dependencies
// beyond the standard library and is built around one contract:
//
//   - Deterministic metrics — counters and histogram bucket counts —
//     are bit-identical for the same seed and workload at every worker
//     count. The advisor's parallel stages only record quantities whose
//     totals are independent of scheduling (work *done*, never work
//     *timed*), and parallel components aggregate by addition, which
//     commutes. The determinism tests in internal/experiments pin this.
//   - Volatile counters (timing-dependent quantities such as how
//     often a client polled the daemon, or lock contention) and gauges
//     (wall clock timings) are excluded from the determinism contract
//     and reported in their own snapshot sections.
//
// Every method is nil-receiver safe: a nil *Registry hands out nil
// instruments whose updates are no-ops, so instrumented code needs no
// enablement branches and pays one nil check when observability is off.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric supporting both set and add semantics.
// Gauges are outside the determinism contract: they record wall-clock
// durations and other quantities that vary run to run.
type Gauge struct {
	bits atomic.Uint64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increases the gauge by v via a CAS loop.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// LatencyBuckets are the fixed histogram bucket upper bounds, in the
// cost model's abstract milliseconds. They are part of the snapshot
// schema: fixed buckets are what make histograms mergeable and their
// bucket counts comparable across runs and worker counts. The range
// spans a healthy sub-millisecond get through the retry budget
// (250 ms) up to whole-transaction worst cases.
var LatencyBuckets = []float64{
	0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
}

// Histogram is a fixed-bucket latency histogram. Observations land in
// the first bucket whose upper bound is >= the value; values beyond
// the last bound land in the overflow bucket. Bucket counts are part
// of the determinism contract; Sum is a float accumulation and is only
// deterministic when observations are recorded serially.
type Histogram struct {
	buckets []atomic.Int64 // len(LatencyBuckets)+1, last is overflow
	count   atomic.Int64
	sum     Gauge
}

func newHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Int64, len(LatencyBuckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(LatencyBuckets, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// merge adds another histogram's buckets into this one.
func (h *Histogram) merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Value())
}

// Registry holds named instruments. Instruments are created on first
// use and live for the registry's lifetime; looking one up twice
// returns the same instrument. A nil *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	volatile map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		volatile: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named deterministic counter, creating it if
// needed. Deterministic counters must only record scheduling-invariant
// quantities; see the package comment.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// VolatileCounter returns the named volatile counter: a counter whose
// value legitimately varies with scheduling (per-route HTTP request
// counts, lock contention). Volatile counters are reported in their own
// snapshot section and excluded from the deterministic fingerprint.
func (r *Registry) VolatileCounter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.volatile[name]
	if c == nil {
		c = &Counter{}
		r.volatile[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Merge adds every instrument of o into r: counters and histogram
// buckets add, gauges sum. Merging is how per-component registries
// (e.g. one per harness.System) roll up into a run-wide registry; the
// result is independent of how work was split because addition
// commutes. Merging a registry into a nil registry, or a nil/self
// registry into r, is a no-op.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil || r == o {
		return
	}
	// Snapshot o's instrument sets first, then add outside o's lock so
	// instrument creation on r cannot deadlock with a concurrent merge
	// in the other direction.
	o.mu.Lock()
	counters := make(map[string]int64, len(o.counters))
	for name, c := range o.counters {
		counters[name] = c.Value()
	}
	vol := make(map[string]int64, len(o.volatile))
	for name, c := range o.volatile {
		vol[name] = c.Value()
	}
	gauges := make(map[string]float64, len(o.gauges))
	for name, g := range o.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]*Histogram, len(o.hists))
	for name, h := range o.hists {
		hists[name] = h
	}
	o.mu.Unlock()

	for name, v := range counters {
		r.Counter(name).Add(v)
	}
	for name, v := range vol {
		r.VolatileCounter(name).Add(v)
	}
	for name, v := range gauges {
		r.Gauge(name).Add(v)
	}
	for name, h := range hists {
		r.Histogram(name).merge(h)
	}
}
