package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// SnapshotSchemaVersion identifies the snapshot JSON layout. Bump it
// when the structure (not the metric set) changes; the golden schema
// test pins the layout for each version.
const SnapshotSchemaVersion = 1

// Bucket is one histogram bucket in a snapshot. LE is the bucket's
// upper bound formatted as a decimal string ("+Inf" for the overflow
// bucket) — a string because JSON cannot represent infinity.
type Bucket struct {
	LE string `json:"le"`
	N  int64  `json:"n"`
}

// HistogramSnapshot is one histogram's point-in-time state. Buckets
// lists only non-empty buckets, in bound order.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, structured for
// stable JSON serialization: map keys marshal sorted, so two snapshots
// with the same values produce byte-identical JSON. Counters and
// histogram bucket counts are the deterministic sections; Volatile and
// Gauges may vary run to run (see the package comment).
type Snapshot struct {
	SchemaVersion int                          `json:"schema_version"`
	Counters      map[string]int64             `json:"counters"`
	Volatile      map[string]int64             `json:"volatile,omitempty"`
	Gauges        map[string]float64           `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. A nil registry yields
// an empty (but valid) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Counters:      map[string]int64{},
		Volatile:      map[string]int64{},
		Gauges:        map[string]float64{},
		Histograms:    map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	vol := make(map[string]*Counter, len(r.volatile))
	for k, v := range r.volatile {
		vol[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, c := range vol {
		s.Volatile[name] = c.Value()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		for i := range h.buckets {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			hs.Buckets = append(hs.Buckets, Bucket{LE: bucketBound(i), N: n})
		}
		s.Histograms[name] = hs
	}
	return s
}

// bucketBound formats bucket i's upper bound.
func bucketBound(i int) string {
	if i >= len(LatencyBuckets) {
		return "+Inf"
	}
	return strconv.FormatFloat(LatencyBuckets[i], 'g', -1, 64)
}

// MarshalJSON renders the snapshot with stable formatting (sorted
// keys, indented) so snapshots diff cleanly and goldens stay byte
// stable.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot // strip the method to avoid recursion
	return json.MarshalIndent((*alias)(s), "", "  ")
}

// WriteJSON returns the snapshot's stable JSON encoding, newline
// terminated.
func (s *Snapshot) WriteJSON() ([]byte, error) {
	b, err := s.MarshalJSON()
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DeterministicFingerprint reduces the snapshot to the sections the
// determinism contract covers — counters and histogram bucket counts —
// rendered as a stable string. Two runs of the same seeded workload
// must produce equal fingerprints at any worker count.
func (s *Snapshot) DeterministicFingerprint() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "counter %s=%d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "hist %s count=%d buckets=", name, h.Count)
		for i, bk := range h.Buckets {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%d", bk.LE, bk.N)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Quantile estimates the q-quantile of a histogram snapshot as the
// upper bound of the bucket where the cumulative count crosses the
// rank (the overflow bucket reports +Inf). Coarse by construction —
// it is a bucket bound, not an interpolation — but deterministic.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for _, bk := range h.Buckets {
		cum += bk.N
		if cum >= rank {
			if bk.LE == "+Inf" {
				return LatencyBuckets[len(LatencyBuckets)-1] * 2
			}
			v, _ := strconv.ParseFloat(bk.LE, 64)
			return v
		}
	}
	return LatencyBuckets[len(LatencyBuckets)-1] * 2
}

// Format renders the snapshot as a human-readable summary: counters,
// volatile counters and gauges aligned name/value, histograms with
// count, mean and coarse p50/p99 bucket bounds.
func (s *Snapshot) Format() string {
	var b strings.Builder
	section := func(title string) { fmt.Fprintf(&b, "%s:\n", title) }

	if len(s.Counters) > 0 {
		section("counters")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-44s %12d\n", name, s.Counters[name])
		}
	}
	if len(s.Volatile) > 0 {
		section("volatile (timing-dependent)")
		for _, name := range sortedKeys(s.Volatile) {
			fmt.Fprintf(&b, "  %-44s %12d\n", name, s.Volatile[name])
		}
	}
	if len(s.Gauges) > 0 {
		section("gauges")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-44s %12.3f\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		section("histograms (sim ms)")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(&b, "  %-44s count=%-8d mean=%-10.3f p50<=%-8g p99<=%g\n",
				name, h.Count, mean, h.Quantile(0.50), h.Quantile(0.99))
		}
	}
	return b.String()
}

// FormatSolverStats renders the LP-solver portion of a snapshot as a
// short human-readable block: solve and warm-start counts with the hit
// rate, the phase-2 roots started from phase 1's root basis, pivot
// breakdown, refactorizations with the eta-file fill they
// wrote and how many more were reused, the LPs branch and bound never
// solved (fixed programs it evaluated, nodes it dropped only because an
// integer-valued objective lets a bound round up), per solver phase how
// many solves ran over how many nodes and how many of them stopped at
// the node limit with what relative gap (a truncated solve's
// recommendation is its best incumbent, not a proven optimum), and the
// formulation-side dominance pruning and cutting-plane counters.
// internal/bip publishes the lp.* totals (aggregated lp.SolverStats)
// and internal/search the search.* ones; the nose and nosebench
// -solver-stats flags print this block after a run.
func (s *Snapshot) FormatSolverStats() string {
	c := s.Counters
	var b strings.Builder
	b.WriteString("solver statistics:\n")
	solves, warm := c["lp.solves"], c["lp.warm_starts"]
	fmt.Fprintf(&b, "  LP solves                %d (%d warm-started", solves, warm)
	if solves > 0 {
		fmt.Fprintf(&b, " = %.0f%%", 100*float64(warm)/float64(solves))
	}
	fmt.Fprintf(&b, ", %d of them proved infeasible; %d phase-2 roots started from phase 1's basis; %d cold fallbacks)\n",
		c["lp.warm_infeasible"], c["lp.primal_warm_starts"], c["lp.warm_fallbacks"])
	fmt.Fprintf(&b, "  simplex pivots           %d (%d dual, %d degenerate)\n",
		c["lp.pivots"], c["lp.dual_pivots"], c["lp.degenerate_pivots"])
	fmt.Fprintf(&b, "  basis refactorizations   %d (%d off-pivot nonzeros), %d reused by a sibling\n",
		c["lp.refactors"], c["lp.refactor_nnz"], c["lp.factor_reuses"])
	fmt.Fprintf(&b, "  LPs not solved           %d fixed programs evaluated, %d nodes pruned by integer rounding\n",
		c["bip.fixed_evals"], c["bip.pruned_integral"])
	for i, phase := range []string{"phase1", "phase2"} {
		solves, cut := c["search."+phase+".solves"], c["search."+phase+".node_limit"]
		if solves == 0 {
			continue
		}
		fmt.Fprintf(&b, "  phase %d solves           %d (", i+1, solves)
		if cut == 0 {
			b.WriteString("proven optimal)")
		} else {
			fmt.Fprintf(&b, "%d stopped at the node limit, mean relative gap %.3g%%)",
				cut, 100*s.Gauges["search."+phase+".gap"]/float64(cut))
		}
		fmt.Fprintf(&b, " over %d nodes\n", c["search."+phase+".nodes"])
	}
	fmt.Fprintf(&b, "  dominated plans pruned   %d\n", c["search.plans_pruned_dominated"])
	fmt.Fprintf(&b, "  budget cut rows          %d\n", c["search.cuts"])
	return b.String()
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteFiles flushes a CLI run's observability: the registry's snapshot
// as JSON to metricsPath with its human-readable summary on out, the
// LP solver statistics block on out when solverStats is set, and the
// tracer's Chrome trace to tracePath. A nil registry or tracer, or an
// empty metricsPath, skips its part.
func WriteFiles(out io.Writer, metricsPath string, reg *Registry, tracePath string, tracer *Tracer, solverStats bool) error {
	if reg != nil {
		snap := reg.Snapshot()
		if solverStats {
			fmt.Fprintf(out, "\n%s", snap.FormatSolverStats())
		}
		if metricsPath != "" {
			data, err := snap.WriteJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(metricsPath, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "\nMetrics (written to %s):\n%s", metricsPath, snap.Format())
		}
	}
	if tracer != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tracer.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d events written to %s (load in chrome://tracing or https://ui.perfetto.dev)\n",
			tracer.Len(), tracePath)
	}
	return nil
}
