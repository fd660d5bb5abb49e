package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"nose/internal/backend"
	"nose/internal/obs"
)

// ledger collects the traced pass's evidence: the benchmark's own spans
// around every call it makes into a layer (one obs.Tracer), the spans
// and counters the program already emits for the same work, and from
// both the per-name totals the per-layer metrics are computed from.
type ledger struct {
	tracer *obs.Tracer
	// cursor is how far adoptJobSpans has read the tracer.
	cursor int
	// spanMicros sums span durations by span name.
	spanMicros map[string]float64
	// counters sums the program's obs counters (volatile ones included)
	// over the traced operations.
	counters map[string]int64
	// statements is the statement count of the latest parsed workload.
	statements int
	// jobEvents are daemon job spans re-based onto the tracer's clock,
	// appended to the trace file beside the tracer's own events.
	jobEvents []chromeEvent
}

// chromeEvent is one complete ("X") Chrome trace_event entry.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

func newLedger() *ledger {
	return &ledger{tracer: obs.NewTracer(), spanMicros: map[string]float64{}, counters: map[string]int64{}}
}

// begin opens a benchmark span; on a nil ledger (tracing off) it
// returns the nil span, whose End is a no-op.
func (l *ledger) begin(name string) *obs.Span {
	if l == nil {
		return nil
	}
	return l.tracer.Begin(name, "bench")
}

// addCounters adds one operation's registry snapshot to the totals.
func (l *ledger) addCounters(s *obs.Snapshot) {
	for name, v := range s.Counters {
		l.counters[name] += v
	}
	for name, v := range s.Volatile {
		l.counters[name] += v
	}
}

// adoptJobSpans takes the stage spans a daemon job recorded on its own
// tracer and places them on the benchmark's clock at the start of the
// latest anchor span (the POST that ran the job), so that in the trace
// file the benchmark's span encloses the program's. The job's clock
// starts when the daemon accepts the submission, a few hundred
// microseconds after the POST begins, so the enclosure always holds.
func (l *ledger) adoptJobSpans(anchor string, spans []obs.TraceEvent) {
	events, next := l.tracer.EventsSince(l.cursor)
	l.cursor = next
	base := 0.0
	for _, e := range events {
		if e.Name == anchor {
			base = e.Ts
		}
	}
	for _, s := range spans {
		l.spanMicros[s.Name] += s.Dur
		l.jobEvents = append(l.jobEvents, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Pid: obs.WallPID, Tid: 1,
			Ts: base + s.Ts, Dur: s.Dur, Args: s.Args,
		})
	}
}

// collectSpans adds every wall-clock span on the tracer — the
// benchmark's and, on the library path, the program's — to the totals.
func (l *ledger) collectSpans() {
	events, _ := l.tracer.EventsSince(0)
	for _, e := range events {
		if e.Wall {
			l.spanMicros[e.Name] += e.Dur
		}
	}
}

// writeTrace writes the Chrome trace to <trace-dir>/trace-<workload>.json.
func (l *ledger) writeTrace(cfg config) error {
	var buf bytes.Buffer
	if err := l.tracer.WriteTrace(&buf); err != nil {
		return err
	}
	data := buf.Bytes()
	if len(l.jobEvents) > 0 {
		var file struct {
			TraceEvents     []json.RawMessage `json:"traceEvents"`
			DisplayTimeUnit string            `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal(data, &file); err != nil {
			return err
		}
		for _, e := range l.jobEvents {
			raw, err := json.Marshal(e)
			if err != nil {
				return err
			}
			file.TraceEvents = append(file.TraceEvents, raw)
		}
		var err error
		if data, err = json.Marshal(file); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".json")
	if err := os.WriteFile(name, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d events, %d dropped)\n",
		name, l.tracer.Len()+len(l.jobEvents), l.tracer.Dropped())
	return nil
}

// timedKV is a backend.KVBackend decorator that clocks every call into
// the layer beneath the executor: the store on a single-store system,
// the coordinator (replica stores and queue admission included) on a
// replicated one.
type timedKV struct {
	inner backend.KVBackend
	// layer names the spans: "store" or "coordinator".
	layer string
	// tracer, when non-nil, also records one span per call.
	tracer *obs.Tracer

	gets, puts         int64
	getNanos, putNanos time.Duration
}

func (t *timedKV) Def(name string) (backend.ColumnFamilyDef, error) { return t.inner.Def(name) }

func (t *timedKV) Get(name string, req backend.GetRequest) (*backend.GetResult, error) {
	sp := t.tracer.Begin(t.layer+".Get "+name, "bench")
	start := time.Now()
	res, err := t.inner.Get(name, req)
	t.getNanos += time.Since(start)
	t.gets++
	sp.End()
	return res, err
}

func (t *timedKV) Put(name string, partition, clustering, values []backend.Value) (*backend.PutResult, error) {
	sp := t.tracer.Begin(t.layer+".Put "+name, "bench")
	start := time.Now()
	res, err := t.inner.Put(name, partition, clustering, values)
	t.putNanos += time.Since(start)
	t.puts++
	sp.End()
	return res, err
}

// Delete counts as a put: both are one write to one record.
func (t *timedKV) Delete(name string, partition, clustering []backend.Value) (bool, *backend.PutResult, error) {
	sp := t.tracer.Begin(t.layer+".Delete "+name, "bench")
	start := time.Now()
	found, res, err := t.inner.Delete(name, partition, clustering)
	t.putNanos += time.Since(start)
	t.puts++
	sp.End()
	return found, res, err
}

// gcCPU is a reading of the runtime's cumulative CPU accounting.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return gcCPU{gc: samples[0].Value.Float64(), total: samples[1].Value.Float64()}
}

// shareSince is the collector's share of all CPU time since an earlier
// reading.
func (c gcCPU) shareSince(earlier gcCPU) float64 {
	if c.total <= earlier.total {
		return 0
	}
	return (c.gc - earlier.gc) / (c.total - earlier.total)
}
