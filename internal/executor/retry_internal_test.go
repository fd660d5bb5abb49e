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
func retryingExecutor(p RetryPolicy) (*Executor, *obs.Registry) {
	e, reg := NewRetrying(nil, cost.Params{}, p), obs.NewRegistry()
	e.SetObs(reg)
	return e, reg
}

func TestRetryOpSuccessFirstTry(t *testing.T) {
	e, reg := retryingExecutor(DefaultRetryPolicy())
	total, err := e.retryOp(&stmtBudget{}, "cf", func() (float64, error) { return 1.5, nil })
	if err != nil || total != 1.5 {
		t.Fatalf("total=%v err=%v, want 1.5, nil", total, err)
	}
	if r, w := RegisteredCounter(t, reg, "exec.retries"), RegisteredGauge(t, reg, "exec.wasted_sim_ms"); r != 0 || w != 0 {
		t.Errorf("exec.retries = %d, exec.wasted_sim_ms = %v; want 0 and 0", r, w)
	}
}

func TestRetryOpTransientThenSuccess(t *testing.T) {
	e, reg := retryingExecutor(DefaultRetryPolicy())
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
		e, _ := retryingExecutor(DefaultRetryPolicy())
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
	e, _ := retryingExecutor(DefaultRetryPolicy())

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

func TestRetryOpExhaustsAttempts(t *testing.T) {
	p := DefaultRetryPolicy()
	p.MaxAttempts = 3
	e, reg := retryingExecutor(p)
	calls := 0
	total, err := e.retryOp(&stmtBudget{}, "cf", func() (float64, error) {
		calls++
		return 0, &faults.Error{Kind: faults.Transient, CF: "cf", Op: "get", SimMillis: 0.5}
	})
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if err == nil || !strings.Contains(err.Error(), "retries exhausted") {
		t.Errorf("err = %v, want retries exhausted", err)
	}
	if !faults.Retryable(err) {
		// The wrapped fault stays classifiable so callers can still
		// distinguish weather from bugs.
		t.Error("exhausted error lost its fault classification")
	}
	if total < 1.5 {
		t.Errorf("total %v does not charge the wasted attempts", total)
	}
	if x, r := RegisteredCounter(t, reg, "exec.retry_exhausted"), RegisteredCounter(t, reg, "exec.retries"); x != 1 || r != 2 {
		t.Errorf("%d exhausted, %d retries; want 1 and 2", x, r)
	}
}

func TestRetryOpBudget(t *testing.T) {
	p := DefaultRetryPolicy()
	p.MaxAttempts = 100
	p.BudgetMillis = 60
	e, _ := retryingExecutor(p)
	bgt := &stmtBudget{}
	_, err := e.retryOp(bgt, "cf", func() (float64, error) {
		return 0, &faults.Error{Kind: faults.Timeout, CF: "cf", Op: "get", SimMillis: 50}
	})
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("err = %v, want retry budget exhausted", err)
	}
	// The budget persists across operations of the same statement: a
	// second op on the same budget gives up immediately.
	calls := 0
	_, err = e.retryOp(bgt, "cf", func() (float64, error) {
		calls++
		return 0, &faults.Error{Kind: faults.Timeout, CF: "cf", Op: "get", SimMillis: 50}
	})
	if calls != 1 || err == nil {
		t.Errorf("second op: calls=%d err=%v, want immediate give-up", calls, err)
	}
}

func TestBackoffCapAndJitterBounds(t *testing.T) {
	p := DefaultRetryPolicy().normalized()
	for attempt := 0; attempt < 12; attempt++ {
		b := p.backoffFor("some.cf", attempt, int64(attempt*7))
		if b > p.MaxBackoffMillis {
			t.Errorf("attempt %d: backoff %v above cap %v", attempt, b, p.MaxBackoffMillis)
		}
		if b < p.BaseBackoffMillis/2 {
			t.Errorf("attempt %d: backoff %v below half base", attempt, b)
		}
	}
	// Deterministic: same inputs, same wait.
	if p.backoffFor("cf", 2, 5) != p.backoffFor("cf", 2, 5) {
		t.Error("backoff not deterministic")
	}
	// Jitter varies across operations.
	if p.backoffFor("cf", 2, 5) == p.backoffFor("cf", 2, 6) {
		t.Error("jitter did not vary with the operation counter")
	}
}

// TestRetryOpBudgetBoundaryExact is the regression test for backoff
// budget accounting: the final backoff truncates to the remaining
// allowance, so a statement that spends its whole budget on backoff
// charges exactly BudgetMillis — never a cap-sized overshoot past it.
func TestRetryOpBudgetBoundaryExact(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts:       1000,
		BaseBackoffMillis: 4,
		MaxBackoffMillis:  8,
		BudgetMillis:      10,
	}
	e, reg := retryingExecutor(p)
	bgt := &stmtBudget{}
	// The fault itself wastes no simulated time, so every charged
	// millisecond is backoff and the total is exactly the budget spend.
	total, err := e.retryOp(bgt, "cf", func() (float64, error) {
		return 0, &faults.Error{Kind: faults.Transient, CF: "cf", Op: "get"}
	})
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err = %v, want retry budget exhausted", err)
	}
	if total != p.BudgetMillis {
		t.Errorf("charged %v ms, want exactly BudgetMillis %v", total, p.BudgetMillis)
	}
	if bgt.spentMillis != p.BudgetMillis {
		t.Errorf("budget spend %v, want exactly %v", bgt.spentMillis, p.BudgetMillis)
	}
	if got := RegisteredGauge(t, reg, "exec.backoff_sim_ms"); got != p.BudgetMillis {
		t.Errorf("backoff charged %v, want exactly %v", got, p.BudgetMillis)
	}
}

// TestRetryOpBudgetNeverOvershoots sweeps budgets against a wasteless
// fault and checks no configuration charges past its own budget.
func TestRetryOpBudgetNeverOvershoots(t *testing.T) {
	for _, budget := range []float64{1, 2.5, 7, 10, 33.25, 100} {
		p := RetryPolicy{MaxAttempts: 1000, BaseBackoffMillis: 4, MaxBackoffMillis: 16, BudgetMillis: budget}
		e, _ := retryingExecutor(p)
		total, err := e.retryOp(&stmtBudget{}, "cf", func() (float64, error) {
			return 0, &faults.Error{Kind: faults.Transient, CF: "cf", Op: "get"}
		})
		if err == nil {
			t.Fatalf("budget %v: expected exhaustion", budget)
		}
		if total > budget {
			t.Errorf("budget %v: charged %v ms past the budget", budget, total)
		}
	}
}
