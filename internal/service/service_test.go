package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nose/internal/service"
	"nose/internal/service/api"
)

// hotelDSL loads the repo's canonical example workload.
func hotelDSL(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "hotel.nose"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// newTestServer starts the full HTTP stack on a loopback listener.
func newTestServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Manager) {
	t.Helper()
	m := service.NewManager(cfg)
	ts := httptest.NewServer(service.NewServer(m, nil))
	t.Cleanup(ts.Close)
	return ts, m
}

// submit POSTs a job and decodes the returned status.
func submit(t *testing.T, ts *httptest.Server, query, body string) service.Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		t.Fatalf("submit failed: HTTP %d", resp.StatusCode)
	}
	return st
}

// fetchResult GETs a finished job's canonical result bytes.
func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: HTTP %d: %s", resp.StatusCode, data)
	}
	return data
}

// buildCLI compiles cmd/nose into the test's temp directory, skipping
// the test when no go tool is on the path.
func buildCLI(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable; CI's smoke step covers the CLI diff")
	}
	bin := filepath.Join(t.TempDir(), "nose")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nose")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build cmd/nose: %v\n%s", err, out)
	}
	return bin
}

// TestHTTPAdviseByteIdenticalToCLI pins the determinism contract end to
// end: a job submitted over HTTP must return the exact bytes `nose
// -json` prints for the same workload and knobs, for every DSL-driven
// kind and at a different worker count on each side. Both doors call
// api.Request.Run, so this is a tripwire for a door growing its own
// path, not the mechanism.
func TestHTTPAdviseByteIdenticalToCLI(t *testing.T) {
	bin := buildCLI(t)
	ts, _ := newTestServer(t, service.Config{})
	for _, tc := range []struct {
		query, file string
		flags       []string
	}{
		{"kind=advise&workers=2", "hotel.nose", []string{"-workers", "3"}},
		{"kind=advise-series&workers=1", "hotel-phases.nose", []string{"-phases", "-workers", "4"}},
		// The file's statements carry mix weights only, so the mix is named.
		{"kind=drift-report&mix=browse&workers=4", "hotel-mixes.nose", []string{"-drift-report", "-mix", "browse", "-workers", "1"}},
	} {
		path := filepath.Join("..", "..", "testdata", tc.file)
		dsl, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		st := submit(t, ts, tc.query+"&wait=1", string(dsl))
		if st.State != service.Done {
			t.Fatalf("%s: job state = %s (%s), want done", tc.query, st.State, st.Error)
		}
		got := fetchResult(t, ts, st.ID)

		want, err := exec.Command(bin, append([]string{"-json", "-in", path}, tc.flags...)...).Output()
		if err != nil {
			t.Fatalf("nose -json %v: %v", tc.flags, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: HTTP result differs from CLI output:\nHTTP:\n%s\nCLI:\n%s", tc.query, got, want)
		}
	}

	// Validation is shared too: what the daemon answers with a 400 (see
	// TestErrorEnvelope) the CLI refuses with a usage exit, instead of
	// reading it as "no budget".
	err := exec.Command(bin, "-space", "NaN", "-in", filepath.Join("..", "..", "testdata", "hotel.nose")).Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("nose -space NaN: %v, want exit status 2", err)
	}
}

// TestConcurrentIdenticalSessions runs two identical advise jobs at the
// same time at different worker counts: they must produce byte-identical
// results. The CI race pass runs this under -race, which is the other
// half of the assertion — concurrent sessions may not trip the detector
// anywhere in the pipeline.
func TestConcurrentIdenticalSessions(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{MaxSessions: 2})
	dsl := hotelDSL(t)

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := submit(t, ts, fmt.Sprintf("kind=advise&workers=%d&wait=1", i+1), dsl)
			if st.State != service.Done {
				t.Errorf("job %d state = %s (%s)", i, st.State, st.Error)
				return
			}
			results[i] = fetchResult(t, ts, st.ID)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Error("concurrent identical jobs returned different bytes")
	}
}

// slowDSL mirrors the search package's cancel-test workload: a chain
// model whose advise takes minutes, so a cancel must be what ends it.
func slowDSL() string {
	const entities, queries = 10, 24
	var b strings.Builder
	for i := 0; i < entities; i++ {
		fmt.Fprintf(&b, "entity E%d E%dID 1000\n", i, i)
		fmt.Fprintf(&b, "attr E%d.A%d string cardinality 100\n", i, i)
		fmt.Fprintf(&b, "attr E%d.B%d integer cardinality 50\n", i, i)
	}
	for i := 0; i+1 < entities; i++ {
		fmt.Fprintf(&b, "rel E%d.Kids%d E%d.Parent%d one-to-many\n", i, i, i+1, i)
	}
	for q := 0; q < queries; q++ {
		start := q % (entities - 4)
		path := fmt.Sprintf("E%d", start+4)
		nav := fmt.Sprintf("E%d.Parent%d.Parent%d.Parent%d.Parent%d", start+4, start+3, start+2, start+1, start)
		fmt.Fprintf(&b, "stmt 0.1 Q%d: SELECT %s.A%d FROM %s WHERE %s.A%d = ?p%d AND %s.B%d > ?r%d\n",
			q, path, start+4, path, nav, start, q, path, start+4, q)
	}
	for i := 0; i < entities; i++ {
		fmt.Fprintf(&b, "stmt 0.2 U%d: UPDATE E%d SET A%d = ? WHERE E%d.E%dID = ?id%d\n", i, i, i, i, i, i)
	}
	return b.String()
}

// TestCancelMidSolve pins the DELETE acceptance criterion: cancelling
// a running job stops the solve via its context within one
// branch-and-bound batch boundary — promptly, on a workload that would
// otherwise run for minutes.
func TestCancelMidSolve(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	st := submit(t, ts, "kind=advise&workers=2&space=2000000", slowDSL())

	// Wait until the job is demonstrably running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur service.Status
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State == service.Running {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job reached %s before it could be cancelled", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Give the solve a moment to get deep into the pipeline, then
	// cancel and require a prompt terminal state.
	time.Sleep(150 * time.Millisecond)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID+"?wait=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var final service.Status
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.State != service.Cancelled {
		t.Fatalf("state after DELETE = %s (%s), want cancelled", final.State, final.Error)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	if final.HasResult {
		t.Fatal("cancelled job kept a partial result")
	}
}

// TestStreamEvents checks the NDJSON stream replays the full lifecycle
// and ends with the metrics fingerprint once the job is terminal.
func TestStreamEvents(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	st := submit(t, ts, "kind=advise&wait=1", hotelDSL(t))
	if st.State != service.Done {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var states []string
	spans := 0
	fingerprint := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "state":
			states = append(states, string(ev.State.State))
		case "span":
			spans++
		case "metrics":
			fingerprint = ev.Fingerprint
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"queued", "running", "done"}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Errorf("lifecycle replay = %v, want %v", states, want)
	}
	if spans == 0 {
		t.Error("stream carried no trace spans")
	}
	if fingerprint == "" {
		t.Error("stream did not end with a metrics fingerprint")
	}
}

// TestSSEFraming checks the Accept-negotiated SSE variant.
func TestSSEFraming(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	st := submit(t, ts, "kind=advise&wait=1", hotelDSL(t))
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "data: ") {
		t.Fatalf("SSE body does not use data: framing:\n%.200s", data)
	}
}

// TestSeriesAndDriftJobs smoke-tests the two DSL-driven non-advise
// kinds against the repo's phased and mixed example workloads.
func TestSeriesAndDriftJobs(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	for _, tc := range []struct {
		kind, file, wantField string
	}{
		{"advise-series", "hotel-phases.nose", "\"phases\""},
		{"drift-report", "hotel-mixes.nose", "\"mixes\""},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		st := submit(t, ts, "kind="+tc.kind+"&wait=1", string(data))
		if st.State != service.Done {
			t.Fatalf("%s state = %s (%s)", tc.kind, st.State, st.Error)
		}
		res := fetchResult(t, ts, st.ID)
		if !bytes.Contains(res, []byte(tc.wantField)) {
			t.Errorf("%s result lacks %s:\n%.300s", tc.kind, tc.wantField, res)
		}
	}
}

// TestSimulateJob runs the tiny-scale RUBiS evaluation through the
// daemon.
func TestSimulateJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulate harness is slow")
	}
	ts, _ := newTestServer(t, service.Config{})
	st := submit(t, ts, "kind=simulate&users=200&executions=3&seed=1&wait=1", "")
	if st.State != service.Done {
		t.Fatalf("simulate state = %s (%s)", st.State, st.Error)
	}
	res := fetchResult(t, ts, st.ID)
	var out struct {
		Rows []struct {
			Transaction string             `json:"transaction"`
			Millis      map[string]float64 `json:"millis"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(res, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 14 {
		t.Fatalf("simulate rows = %d, want 14", len(out.Rows))
	}
}

// TestErrorEnvelope covers the uniform error body and validation paths.
func TestErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", resp.StatusCode)
	}
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != "not_found" || envelope.Error.Message == "" {
		t.Errorf("error envelope = %+v", envelope)
	}

	resp2, err := http.Post(ts.URL+"/v1/jobs?kind=frobnicate", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: HTTP %d", resp2.StatusCode)
	}

	resp3, err := http.Post(ts.URL+"/v1/jobs?kind=advise", "text/plain", strings.NewReader("  "))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty DSL: HTTP %d", resp3.StatusCode)
	}

	// NaN compares false with everything, so a plain "< 0" check lets it
	// through as "no budget".
	resp5, err := http.Post(ts.URL+"/v1/jobs?kind=advise&space=NaN", "text/plain", strings.NewReader(hotelDSL(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp5.Body.Close()
	if resp5.StatusCode != http.StatusBadRequest {
		t.Fatalf("space=NaN: HTTP %d, want 400", resp5.StatusCode)
	}

	// Result of an unfinished job is a 409.
	st := submit(t, ts, "kind=advise&space=2000000", slowDSL())
	resp4, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished result: HTTP %d, want 409", resp4.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID+"?wait=1", nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownAbortsInFlight checks Manager.Shutdown's abort path: an
// expired drain context cancels running jobs instead of waiting out a
// minutes-long solve.
func TestShutdownAbortsInFlight(t *testing.T) {
	ts, m := newTestServer(t, service.Config{})
	st := submit(t, ts, "kind=advise&space=2000000", slowDSL())

	j, ok := m.Get(st.ID)
	if !ok {
		t.Fatal("job missing")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	m.Shutdown(ctx)
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("shutdown took %v", d)
	}
	if s := j.Status().State; s != service.Cancelled {
		t.Fatalf("job state after abort shutdown = %s", s)
	}
	if _, err := m.Submit(service.Request{Kind: "advise", Request: api.Request{DSL: "x"}}); err == nil {
		t.Fatal("submit after shutdown succeeded")
	}
}
