package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"nose/internal/obs"
)

// MaxRequestBytes bounds a job submission body (the workload DSL).
const MaxRequestBytes = 1 << 20

// Route documents one registered endpoint. NewServer registers
// exactly this table, and cmd/docgate's route drift guard checks that
// docs/API.md documents every entry — the table is the single source
// of truth for both.
type Route struct {
	// Method is the HTTP method.
	Method string
	// Pattern is the net/http ServeMux pattern (Go 1.22 syntax).
	Pattern string
	// Handler serves the route, as a method expression of Server.
	Handler func(*Server, http.ResponseWriter, *http.Request)
}

// Routes lists every endpoint the daemon serves, in documentation
// order.
var Routes = []Route{
	{"POST", "/v1/jobs", (*Server).handleSubmit},              // submit a job: workload DSL body, kind and knobs as query parameters
	{"GET", "/v1/jobs", (*Server).handleList},                 // list all jobs in submission order
	{"GET", "/v1/jobs/{id}", (*Server).handleGet},             // poll one job's status
	{"GET", "/v1/jobs/{id}/result", (*Server).handleResult},   // fetch a finished job's canonical result document
	{"GET", "/v1/jobs/{id}/events", (*Server).handleEvents},   // stream the job's lifecycle and trace events (NDJSON or SSE)
	{"GET", "/v1/jobs/{id}/metrics", (*Server).handleMetrics}, // fetch the job's obs metrics snapshot
	{"DELETE", "/v1/jobs/{id}", (*Server).handleCancel},       // cancel a queued or running job
	{"GET", "/v1/healthz", (*Server).handleHealthz},           // liveness probe
}

// Server serves the HTTP API over a Manager.
type Server struct {
	manager *Manager
	reg     *obs.Registry
	mux     *http.ServeMux
}

// NewServer wires the API routes over the manager. reg, when non-nil,
// receives per-route request counters and latency histograms; nil
// disables server metrics.
func NewServer(m *Manager, reg *obs.Registry) *Server {
	s := &Server{manager: m, reg: reg, mux: http.NewServeMux()}
	for _, r := range Routes {
		s.mux.Handle(r.Method+" "+r.Pattern, s.instrument(r))
	}
	return s
}

// ServeHTTP dispatches to the registered routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// instrument binds a route's handler to s and wraps it with per-route
// metrics: a volatile request counter and latency histogram per route
// (volatile because request arrival is wall-clock, not part of any
// deterministic fingerprint).
func (s *Server) instrument(route Route) http.Handler {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { route.Handler(s, w, r) })
	if s.reg == nil {
		return h
	}
	name := route.Method + " " + route.Pattern
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.reg.VolatileCounter("http.requests." + name).Inc()
		s.reg.Histogram("http.millis." + name).Observe(float64(time.Since(start).Microseconds()) / 1000)
	})
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// writeError sends the error envelope with the given status.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = fmt.Sprintf(format, args...)
	writeJSON(w, status, body)
}

// writeJSON sends an indented JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// parseRequest decodes the submission query parameters and body.
func parseRequest(r *http.Request) (Request, error) {
	q := r.URL.Query()
	req := Request{Kind: q.Get("kind")}
	req.Mix = q.Get("mix")
	if req.Kind == "" {
		req.Kind = "advise"
	}
	intParam := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s %q: %w", name, v, err)
			}
			*dst = n
		}
		return nil
	}
	for name, dst := range map[string]*int{
		"workers": &req.Workers, "max-plans": &req.MaxPlans,
		"users": &req.Users, "executions": &req.Executions,
	} {
		if err := intParam(name, dst); err != nil {
			return req, err
		}
	}
	if v := q.Get("space"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, fmt.Errorf("bad space %q: %w", v, err)
		}
		req.SpaceBytes = f
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, fmt.Errorf("bad seed %q: %w", v, err)
		}
		req.Seed = n
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxRequestBytes+1))
	if err != nil {
		return req, fmt.Errorf("read body: %w", err)
	}
	if len(body) > MaxRequestBytes {
		return req, fmt.Errorf("request body exceeds %d bytes", MaxRequestBytes)
	}
	req.DSL = string(body)
	return req, nil
}

// handleSubmit accepts a job. With ?wait=1 it blocks until the job
// reaches a terminal state (or the client goes away) before answering,
// which gives shell clients a one-request submit-and-wait.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := parseRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	j, err := s.manager.Submit(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	status := http.StatusAccepted
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.Done():
			status = http.StatusOK
		case <-r.Context().Done():
			// Client gave up; the job keeps running. Report current state.
		}
	}
	writeJSON(w, status, j.Status())
}

// jobList is the GET /v1/jobs response body.
type jobList struct {
	Jobs []Status `json:"jobs"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	out := jobList{Jobs: []Status{}}
	for _, j := range s.manager.Jobs() {
		out.Jobs = append(out.Jobs, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

// job returns the path's job or writes a 404.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", id)
	}
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// handleResult serves the canonical result document — the exact bytes
// the determinism contract speaks about, so clients can diff them
// against CLI output directly.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	data, ok := j.Result()
	if !ok {
		st := j.Status()
		writeError(w, http.StatusConflict, "not_ready", "job %s is %s, not done", st.ID, st.State)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	data, err := j.reg.Snapshot().WriteJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.manager.Cancel(j.ID())
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"ok\": true}\n"))
}
