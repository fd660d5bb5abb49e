package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nose/internal/service"
	"nose/internal/service/api"
)

// TestDaemonServesAndDrains runs the nosed binary itself, not the
// handlers behind httptest: it must serve a hotel.nose advise whose
// result bytes are api.Request.Run's, and on SIGTERM drain, print
// "nosed: stopped" and exit 0. An advise that would run for minutes is
// in flight when the signal arrives, so the daemon may exit no sooner
// than -drain-timeout after it: one that skips the job manager's drain
// exits at once.
func TestDaemonServesAndDrains(t *testing.T) {
	const drainTimeout = 500 * time.Millisecond
	bin := buildNosed(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr, "-drain-timeout", drainTimeout.String())
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})
	base := "http://" + addr
	waitHealthy(t, base, exited)

	dsl, err := os.ReadFile(filepath.Join("..", "..", "testdata", "hotel.nose"))
	if err != nil {
		t.Fatal(err)
	}
	st := submit(t, base, "kind=advise&wait=1", dsl)
	if st.State != service.Done {
		t.Fatalf("advise: state %s (%s), want done", st.State, st.Error)
	}
	got := get(t, base+"/v1/jobs/"+st.ID+"/result")
	want, err := api.Request{DSL: string(dsl)}.Run(context.Background(), api.KindAdvise, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("nosed's advise result differs from api.Request.Run's:\nnosed:\n%s\nRun:\n%s", got, want)
	}

	slow := submit(t, base, "kind=advise&space=2000000", []byte(slowDSL()))
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var cur service.Status
		if err := json.Unmarshal(get(t, base+"/v1/jobs/"+slow.ID), &cur); err != nil {
			t.Fatal(err)
		}
		if cur.State == service.Running {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("slow advise is %s, want it running at SIGTERM", cur.State)
		}
	}

	signalled := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Errorf("nosed after SIGTERM: %v, want exit status 0\n%s", waitErr, stderr.Bytes())
		}
	case <-time.After(time.Minute):
		t.Fatal("nosed did not exit within a minute of SIGTERM")
	}
	if took := time.Since(signalled); took < drainTimeout {
		t.Errorf("nosed exited %v after SIGTERM with an advise running, before its %v drain", took, drainTimeout)
	}
	if !strings.Contains(stderr.String(), "nosed: stopped\n") {
		t.Errorf("stderr lacks \"nosed: stopped\":\n%s", stderr.Bytes())
	}
}

// buildNosed compiles cmd/nosed into the test's temp directory,
// skipping the test when no go tool is on the path.
func buildNosed(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable to build cmd/nosed")
	}
	bin := filepath.Join(t.TempDir(), "nosed")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nosed")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build cmd/nosed: %v\n%s", err, out)
	}
	return bin
}

// waitHealthy polls the health endpoint until the daemon answers,
// failing if it exits first.
func waitHealthy(t *testing.T, base string, exited <-chan struct{}) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		select {
		case <-exited:
			t.Fatal("nosed exited before serving")
		default:
		}
		if resp, err := http.Get(base + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("nosed never answered /v1/healthz")
		}
	}
}

// submit POSTs a job and decodes the status the daemon returns.
func submit(t *testing.T, base, query string, dsl []byte) service.Status {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs?"+query, "text/plain", bytes.NewReader(dsl))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode >= 400 {
		t.Fatalf("submit %s: HTTP %d, %v", query, resp.StatusCode, err)
	}
	return st
}

// get fetches a URL's body, failing on any status but 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d, %v: %s", url, resp.StatusCode, err, data)
	}
	return data
}

// slowDSL is the chain-model workload of internal/service's cancel
// tests: under a 2 MB budget its advise runs for minutes.
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
