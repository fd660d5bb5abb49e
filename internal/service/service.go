// Package service implements the nosed daemon's engine: an
// asynchronous job manager and HTTP/JSON API that expose the advisor
// (advise, advise-series, drift-report) and the simulated evaluation
// harness (simulate) as long-running jobs. POST submits a job (workload
// DSL in the request body, knobs as query parameters), GET polls it,
// DELETE cancels it via context.Context — the cancel lands within one
// branch-and-bound batch boundary — and a streaming endpoint replays
// the job's obs span and lifecycle events as NDJSON or SSE.
//
// # Determinism contract
//
// The same request (workload DSL, kind, and knobs — workers excluded)
// and seed produce byte-identical result documents, equal to what the
// corresponding CLI prints: an advise job's result is exactly `nose
// -json -in <dsl>` output. This holds because both run
// api.Request.Run, the advisor is worker-count invariant, the wire
// encoding (internal/service/api) is canonical, and results never embed
// wall-clock readings. TestHTTPAdviseByteIdenticalToCLI diffs a daemon
// result against the CLI's for each advisor kind, as a tripwire.
//
// # Session isolation
//
// Sessions share nothing but the manager's bookkeeping: each job parses
// its own copy of the workload and owns its planner, registry and
// tracer, so concurrent identical jobs cannot influence each other and
// a cancelled one leaves nothing behind.
package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"nose/internal/obs"
	"nose/internal/service/api"
)

// State is a job's lifecycle state. Jobs move queued → running →
// done | failed | cancelled; terminal states never change.
type State string

// Job lifecycle states.
const (
	// Queued: accepted, waiting for a session slot.
	Queued State = "queued"
	// Running: a session slot is executing the job.
	Running State = "running"
	// Done: finished successfully; the result document is available.
	Done State = "done"
	// Failed: finished with an error.
	Failed State = "failed"
	// Cancelled: stopped by DELETE or daemon shutdown before finishing.
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Kinds enumerates the job kinds the manager accepts, in documentation
// order.
var Kinds = []string{api.KindAdvise, api.KindSeries, api.KindDriftReport, "simulate"}

// Request is a parsed job submission.
type Request struct {
	// Kind selects the job type; see Kinds.
	Kind string
	// Request carries the workload DSL and the advisor knobs shared with
	// the nose CLI. The DSL is required for every kind except simulate,
	// which runs the built-in RUBiS workload.
	api.Request
	// Seed seeds the simulate job's dataset generation; 0 means 1.
	Seed int64
	// Users scales the simulate job's RUBiS dataset; 0 means 2000, and
	// at most MaxSimulateUsers.
	Users int
	// Executions is the simulate job's measured executions per
	// transaction; 0 means 20, and at most MaxSimulateExecutions.
	Executions int
}

// Event is one job lifecycle transition, replayed by the streaming
// endpoint before the job's trace spans.
type Event struct {
	// Seq orders the job's lifecycle events from zero.
	Seq int `json:"seq"`
	// State is the state entered.
	State State `json:"state"`
	// Error carries the failure message when State is failed.
	Error string `json:"error,omitempty"`
}

// Job is one submitted unit of work. All fields are guarded by the
// manager; read them through snapshots (Status) or accessors.
type Job struct {
	mu      sync.Mutex
	id      string
	req     Request
	state   State
	err     string
	result  []byte
	events  []Event
	reg     *obs.Registry
	tracer  *obs.Tracer
	cancel  context.CancelFunc
	done    chan struct{}
	created time.Time
}

// Status is a job's public snapshot. ID is deliberately the first
// field: the wire JSON leads with it, which keeps shell clients
// trivial.
type Status struct {
	// ID is the job identifier, e.g. "job-1".
	ID string `json:"id"`
	// Kind is the job type.
	Kind string `json:"kind"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Error is the failure message for failed jobs.
	Error string `json:"error,omitempty"`
	// HasResult reports whether GET …/result will serve a document.
	HasResult bool `json:"has_result"`
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Status returns the job's public snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.id, Kind: j.req.Kind, State: j.state, Error: j.err,
		HasResult: len(j.result) > 0,
	}
}

// Result returns the canonical result document, or false while the job
// has not finished successfully.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done {
		return nil, false
	}
	return j.result, true
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// eventsSince returns lifecycle events from seq on, plus the next
// cursor.
func (j *Job) eventsSince(since int) ([]Event, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if since < 0 {
		since = 0
	}
	if since >= len(j.events) {
		return nil, len(j.events)
	}
	out := append([]Event(nil), j.events[since:]...)
	return out, len(j.events)
}

// transition appends a lifecycle event and, on a terminal state, closes
// the done channel. It refuses to leave a terminal state, so a racing
// cancel and completion settle on whichever landed first.
func (j *Job) transition(s State, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = s
	j.err = errMsg
	j.events = append(j.events, Event{Seq: len(j.events), State: s, Error: errMsg})
	if s.Terminal() {
		close(j.done)
	}
	return true
}

// setResult stores the canonical result document.
func (j *Job) setResult(data []byte) {
	j.mu.Lock()
	j.result = data
	j.mu.Unlock()
}

// Config tunes a Manager.
type Config struct {
	// MaxSessions bounds concurrently running jobs; further submissions
	// queue. Zero or negative means 2.
	MaxSessions int
}

// DefaultMaxSessions is the default bound on concurrent sessions.
const DefaultMaxSessions = 2

// Manager owns the daemon's jobs: it validates submissions, bounds
// concurrent advisor sessions, and coordinates graceful shutdown.
type Manager struct {
	cfg Config
	sem chan struct{}

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	closed bool
	wg     sync.WaitGroup
}

// NewManager returns an empty manager.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	return &Manager{
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.MaxSessions),
		jobs: map[string]*Job{},
	}
}

// Validate checks a request before submission.
func (r Request) Validate() error {
	known := false
	for _, k := range Kinds {
		if r.Kind == k {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown job kind %q (want one of %s)", r.Kind, strings.Join(Kinds, ", "))
	}
	if r.Kind != "simulate" && strings.TrimSpace(r.DSL) == "" {
		return fmt.Errorf("%s needs a workload DSL request body", r.Kind)
	}
	if r.Users < 0 || r.Executions < 0 {
		return fmt.Errorf("users and executions must not be negative")
	}
	if r.Users > MaxSimulateUsers || r.Executions > MaxSimulateExecutions {
		return fmt.Errorf("users %d and executions %d must be at most %d and %d",
			r.Users, r.Executions, MaxSimulateUsers, MaxSimulateExecutions)
	}
	return r.Request.Validate()
}

// Submit validates and enqueues a job. The job starts as soon as a
// session slot frees up; Submit itself never blocks on the solve.
func (m *Manager) Submit(req Request) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("daemon is shutting down")
	}
	m.nextID++
	j := &Job{
		id:      fmt.Sprintf("job-%d", m.nextID),
		req:     req,
		state:   Queued,
		reg:     obs.NewRegistry(),
		tracer:  obs.NewTracer(),
		done:    make(chan struct{}),
		created: time.Now(),
	}
	j.events = append(j.events, Event{Seq: 0, State: Queued})
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.wg.Add(1)
	m.mu.Unlock()

	go func() {
		defer m.wg.Done()
		defer cancel()
		select {
		case m.sem <- struct{}{}:
			defer func() { <-m.sem }()
		case <-ctx.Done():
			j.transition(Cancelled, "")
			return
		}
		if !j.transition(Running, "") {
			return // cancelled while queued
		}
		data, err := m.run(ctx, j)
		switch {
		case err == nil:
			j.setResult(data)
			j.transition(Done, "")
		case ctx.Err() != nil:
			j.transition(Cancelled, "")
		default:
			j.transition(Failed, err.Error())
		}
	}()
	return j, nil
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel stops a job: a queued job is cancelled immediately, a running
// one has its context cancelled and stops at the next advisor
// checkpoint (at worst one branch-and-bound batch). Cancelling a
// terminal job is a no-op. It reports whether the job exists.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.cancel()
	return true
}

// Shutdown stops accepting jobs and waits for in-flight ones. Until
// ctx expires it drains — running jobs finish normally; after that it
// aborts them via their contexts and waits for the prompt cancellation
// path. Queued jobs that never got a slot are cancelled either way.
func (m *Manager) Shutdown(ctx context.Context) {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() { m.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		return
	case <-ctx.Done():
	}
	for _, j := range m.Jobs() {
		j.cancel()
	}
	<-drained
}
