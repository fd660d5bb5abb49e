package executor

import (
	"errors"
	"strings"
	"testing"

	"nose/internal/cost"
	"nose/internal/faults"
	"nose/internal/obs"
)

// retryingExecutor builds an executor for retry tests, which drive
// retryOp with closures and never touch a store, counting into the
// returned registry.
func retryingExecutor() (*Executor, *obs.Registry) {
	e, reg := New(nil, cost.Params{}), obs.NewRegistry()
	e.SetObs(reg)
	return e, reg
}

func TestRetryOpSuccessFirstTry(t *testing.T) {
	e, reg := retryingExecutor()
	total, err := e.retryOp(&stmtBudget{}, "cf", func() (float64, error) { return 1.5, nil })
	if err != nil || total != 1.5 {
		t.Fatalf("total=%v err=%v, want 1.5, nil", total, err)
	}
	if r, w := RegisteredCounter(t, reg, "exec.retries"), RegisteredGauge(t, reg, "exec.wasted_sim_ms"); r != 0 || w != 0 {
		t.Errorf("exec.retries = %d, exec.wasted_sim_ms = %v; want 0 and 0", r, w)
	}
}

func TestRetryOpTransientThenSuccess(t *testing.T) {
	e, reg := retryingExecutor()
	fails := 2
	total, err := e.retryOp(&stmtBudget{}, "cf", func() (float64, error) {
		if fails > 0 {
			fails--
			return 0, &faults.Error{Kind: faults.Transient, CF: "cf", Op: "get", SimMillis: 0.5}
		}
		return 2.0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Total = op time + 2 wasted transients + 2 backoff waits.
	if total <= 2.0+2*0.5 {
		t.Errorf("total %v does not include backoff", total)
	}
	if got := RegisteredCounter(t, reg, "exec.retries"); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := RegisteredGauge(t, reg, "exec.wasted_sim_ms"); got != 1.0 {
		t.Errorf("wasted = %v, want 1.0", got)
	}
	if RegisteredGauge(t, reg, "exec.backoff_sim_ms") <= 0 {
		t.Error("no backoff charged")
	}
}

func TestRetryOpDeterministic(t *testing.T) {
	run := func() float64 {
		e, _ := retryingExecutor()
		fails := 3
		total, err := e.retryOp(&stmtBudget{}, "cf", func() (float64, error) {
			if fails > 0 {
				fails--
				return 0, &faults.Error{Kind: faults.Timeout, CF: "cf", Op: "get", SimMillis: 50}
			}
			return 1.0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same inputs gave different totals: %v vs %v", a, b)
	}
}

func TestRetryOpNonRetryable(t *testing.T) {
	e, _ := retryingExecutor()

	calls := 0
	boom := errors.New("arity mismatch")
	_, err := e.retryOp(&stmtBudget{}, "cf", func() (float64, error) {
		calls++
		return 0, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Errorf("plain error: calls=%d err=%v, want 1 call, passthrough", calls, err)
	}

	calls = 0
	_, err = e.retryOp(&stmtBudget{}, "cf", func() (float64, error) {
		calls++
		return 0, &faults.Error{Kind: faults.Unavailable, CF: "cf", Op: "get"}
	})
	fe, ok := faults.AsFault(err)
	if !ok || fe.Kind != faults.Unavailable || calls != 1 {
		t.Errorf("unavailable: calls=%d err=%v, want 1 call, unavailable fault", calls, err)
	}
}

// TestRetryOpExhaustsAttempts: a cheap fault that never clears stops
// at the attempt cap, long before the budget.
func TestRetryOpExhaustsAttempts(t *testing.T) {
	e, reg := retryingExecutor()
	calls := 0
	total, err := e.retryOp(&stmtBudget{}, "cf", func() (float64, error) {
		calls++
		return 0, &faults.Error{Kind: faults.Transient, CF: "cf", Op: "get", SimMillis: 0.5}
	})
	if calls != maxAttempts {
		t.Errorf("calls = %d, want %d", calls, maxAttempts)
	}
	if err == nil || !strings.Contains(err.Error(), "retries exhausted") {
		t.Errorf("err = %v, want retries exhausted", err)
	}
	if !faults.Retryable(err) {
		// The wrapped fault stays classifiable so callers can still
		// distinguish weather from bugs.
		t.Error("exhausted error lost its fault classification")
	}
	if total < maxAttempts*0.5 {
		t.Errorf("total %v does not charge the wasted attempts", total)
	}
	if x, r := RegisteredCounter(t, reg, "exec.retry_exhausted"), RegisteredCounter(t, reg, "exec.retries"); x != 1 || r != maxAttempts-1 {
		t.Errorf("%d exhausted, %d retries; want 1 and %d", x, r, maxAttempts-1)
	}
}

// TestRetryOpBudget: a fault that wastes 100 ms a try spends the
// statement's budget on its third try, before the attempt cap.
func TestRetryOpBudget(t *testing.T) {
	e, _ := retryingExecutor()
	bgt := &stmtBudget{}
	calls := 0
	_, err := e.retryOp(bgt, "cf", func() (float64, error) {
		calls++
		return 0, &faults.Error{Kind: faults.Timeout, CF: "cf", Op: "get", SimMillis: 100}
	})
	if err == nil || !strings.Contains(err.Error(), "retry budget") || calls != 3 {
		t.Errorf("calls=%d err=%v, want retry budget exhausted on the third call", calls, err)
	}
	// The budget persists across operations of the same statement: a
	// second op on the same budget gives up immediately.
	calls = 0
	_, err = e.retryOp(bgt, "cf", func() (float64, error) {
		calls++
		return 0, &faults.Error{Kind: faults.Timeout, CF: "cf", Op: "get", SimMillis: 50}
	})
	if calls != 1 || err == nil {
		t.Errorf("second op: calls=%d err=%v, want immediate give-up", calls, err)
	}
}

func TestBackoffCapAndJitterBounds(t *testing.T) {
	for attempt := 0; attempt < 12; attempt++ {
		b := backoffFor("some.cf", attempt, int64(attempt*7))
		if b > maxBackoffMillis {
			t.Errorf("attempt %d: backoff %v above cap %v", attempt, b, maxBackoffMillis)
		}
		if b < baseBackoffMillis/2 {
			t.Errorf("attempt %d: backoff %v below half base", attempt, b)
		}
	}
	// Deterministic: same inputs, same wait.
	if backoffFor("cf", 2, 5) != backoffFor("cf", 2, 5) {
		t.Error("backoff not deterministic")
	}
	// Jitter varies across operations.
	if backoffFor("cf", 2, 5) == backoffFor("cf", 2, 6) {
		t.Error("jitter did not vary with the operation counter")
	}
}

// TestRetryOpBudgetBoundaryExact is the regression test for backoff
// budget accounting: the final backoff truncates to the remaining
// allowance, so a statement whose failures leave less than one backoff
// of its budget charges exactly the budget, never a cap-sized
// overshoot past it. The first try wastes all but 0.25 ms of the
// budget, less than the shortest backoff; the second wastes nothing.
func TestRetryOpBudgetBoundaryExact(t *testing.T) {
	e, reg := retryingExecutor()
	bgt := &stmtBudget{}
	first := retryBudgetMillis - 0.25
	calls := 0
	total, err := e.retryOp(bgt, "cf", func() (float64, error) {
		calls++
		if calls == 1 {
			return 0, &faults.Error{Kind: faults.Timeout, CF: "cf", Op: "get", SimMillis: first}
		}
		return 0, &faults.Error{Kind: faults.Transient, CF: "cf", Op: "get"}
	})
	if err == nil || !strings.Contains(err.Error(), "retry budget") || calls != 2 {
		t.Fatalf("calls=%d err=%v, want retry budget exhausted on the second call", calls, err)
	}
	if total != retryBudgetMillis {
		t.Errorf("charged %v ms, want exactly the budget %v", total, retryBudgetMillis)
	}
	if bgt.spentMillis != retryBudgetMillis {
		t.Errorf("budget spend %v, want exactly %v", bgt.spentMillis, retryBudgetMillis)
	}
	if got := RegisteredGauge(t, reg, "exec.backoff_sim_ms"); got != retryBudgetMillis-first {
		t.Errorf("backoff charged %v, want exactly %v", got, retryBudgetMillis-first)
	}
}

// TestRetryOpBudgetNeverOvershoots sweeps the cost of a first failure
// followed by wasteless ones and checks none charges past the budget.
func TestRetryOpBudgetNeverOvershoots(t *testing.T) {
	for _, first := range []float64{0, 1, 2.5, 7, 10, 33.25, 100, 240, 249.75} {
		e, _ := retryingExecutor()
		calls := 0
		total, err := e.retryOp(&stmtBudget{}, "cf", func() (float64, error) {
			calls++
			if calls == 1 {
				return 0, &faults.Error{Kind: faults.Timeout, CF: "cf", Op: "get", SimMillis: first}
			}
			return 0, &faults.Error{Kind: faults.Transient, CF: "cf", Op: "get"}
		})
		if err == nil {
			t.Fatalf("first failure %v ms: expected exhaustion", first)
		}
		if total > retryBudgetMillis {
			t.Errorf("first failure %v ms: charged %v ms past the budget", first, total)
		}
	}
}
