package executor

import (
	"fmt"
	"hash/fnv"

	"nose/internal/faults"
)

// RetryPolicy governs how the executor retries operations that fail
// with retryable injected faults (transient errors and timeouts).
// Backoff is capped exponential with deterministic jitter, and both the
// wasted operation time and the backoff waits are charged into the
// statement's simulated response time — a degraded store makes
// statements measurably slower, never silently fault-free.
type RetryPolicy struct {
	// MaxAttempts bounds the tries per operation (first attempt
	// included). Zero or one disables retries.
	MaxAttempts int
	// BaseBackoffMillis is the simulated wait before the first retry;
	// zero means DefaultBaseBackoffMillis when retries are enabled.
	BaseBackoffMillis float64
	// MaxBackoffMillis caps the exponential backoff; zero means
	// DefaultMaxBackoffMillis.
	MaxBackoffMillis float64
	// BudgetMillis bounds the total simulated time one statement may
	// spend on failed attempts and backoff before giving up; zero means
	// DefaultRetryBudgetMillis.
	BudgetMillis float64
}

// Default retry tuning, in the cost model's abstract milliseconds.
const (
	DefaultMaxAttempts       = 4
	DefaultBaseBackoffMillis = 1.0
	DefaultMaxBackoffMillis  = 16.0
	DefaultRetryBudgetMillis = 250.0
)

// DefaultRetryPolicy returns the standard retry tuning.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:       DefaultMaxAttempts,
		BaseBackoffMillis: DefaultBaseBackoffMillis,
		MaxBackoffMillis:  DefaultMaxBackoffMillis,
		BudgetMillis:      DefaultRetryBudgetMillis,
	}
}

// enabled reports whether the policy retries at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// normalized fills policy defaults for enabled policies.
func (p RetryPolicy) normalized() RetryPolicy {
	if !p.enabled() {
		return p
	}
	if p.BaseBackoffMillis <= 0 {
		p.BaseBackoffMillis = DefaultBaseBackoffMillis
	}
	if p.MaxBackoffMillis <= 0 {
		p.MaxBackoffMillis = DefaultMaxBackoffMillis
	}
	if p.BudgetMillis <= 0 {
		p.BudgetMillis = DefaultRetryBudgetMillis
	}
	return p
}

// stmtBudget tracks one statement execution's retry spend. Each
// statement gets a fresh budget so a burst of faults on one statement
// cannot starve the next.
type stmtBudget struct {
	spentMillis float64
	ops         int64
	retries     int64
}

// jitter01 returns a deterministic pseudo-uniform value in [0, 1)
// derived from the seed via a splitmix64 finalizer.
func jitter01(seed uint64) float64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// backoffFor computes the capped exponential backoff for a retry
// attempt with deterministic jitter in [½·b, b].
func (p RetryPolicy) backoffFor(cf string, attempt int, op int64) float64 {
	b := p.BaseBackoffMillis
	for i := 0; i < attempt && b < p.MaxBackoffMillis; i++ {
		b *= 2
	}
	if b > p.MaxBackoffMillis {
		b = p.MaxBackoffMillis
	}
	h := fnv.New64a()
	h.Write([]byte(cf))
	seed := h.Sum64() ^ uint64(attempt)*0xff51afd7ed558ccd ^ uint64(op)*0xc4ceb9fe1a85ec53
	return b * (0.5 + 0.5*jitter01(seed))
}

// retryOp runs one store operation under the retry policy. do returns
// the operation's own simulated service time on success. retryOp
// returns the total simulated time consumed — service time plus any
// wasted attempts and backoff — and the final error, whose own wasted
// time is already included in the returned millis.
func (e *Executor) retryOp(bgt *stmtBudget, cf string, do func() (float64, error)) (float64, error) {
	total := 0.0
	for attempt := 0; ; attempt++ {
		bgt.ops++
		sim, err := do()
		total += sim
		if err == nil {
			return total, nil
		}
		wasted := faults.SimCost(err)
		total += wasted
		bgt.spentMillis += wasted
		if !e.retry.enabled() || !faults.Retryable(err) {
			return total, err
		}
		if attempt+1 >= e.retry.MaxAttempts {
			e.eo.retryExhausted.Inc()
			e.eo.wastedSimMs.Add(wasted)
			return total, fmt.Errorf("retries exhausted after %d attempts: %w", attempt+1, err)
		}
		if bgt.spentMillis >= e.retry.BudgetMillis {
			e.eo.retryExhausted.Inc()
			e.eo.wastedSimMs.Add(wasted)
			return total, fmt.Errorf("retry budget (%.0fms) exhausted: %w", e.retry.BudgetMillis, err)
		}
		backoff := e.retry.backoffFor(cf, attempt, bgt.ops)
		// Never charge past the budget: the final backoff truncates to
		// the remaining allowance, so backoff spend lands exactly on
		// BudgetMillis instead of overshooting the charged SimMillis.
		if rem := e.retry.BudgetMillis - bgt.spentMillis; backoff > rem {
			backoff = rem
		}
		total += backoff
		bgt.spentMillis += backoff
		bgt.retries++
		e.eo.retries.Inc()
		e.eo.backoffSimMs.Add(backoff)
		e.eo.wastedSimMs.Add(wasted)
	}
}
