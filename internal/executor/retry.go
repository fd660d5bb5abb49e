package executor

import (
	"fmt"
	"hash/fnv"

	"nose/internal/faults"
)

// The executor retries operations that fail with retryable injected
// faults (transient errors and timeouts). Backoff is capped exponential
// with deterministic jitter, and both the wasted operation time and the
// backoff waits are charged into the statement's simulated response
// time: a degraded store makes statements measurably slower, never
// silently fault-free. A store without weather never fails retryably,
// so on a healthy stack the retry path is never taken. The tuning is in
// the cost model's abstract milliseconds.
const (
	// maxAttempts bounds the tries per operation, the first included.
	maxAttempts = 4
	// baseBackoffMillis is the wait before the first retry;
	// maxBackoffMillis caps the doubling.
	baseBackoffMillis = 1.0
	maxBackoffMillis  = 16.0
	// retryBudgetMillis bounds the simulated time one statement may
	// spend on failed attempts and backoff before giving up.
	retryBudgetMillis = 250.0
)

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
func backoffFor(cf string, attempt int, op int64) float64 {
	b := baseBackoffMillis
	for i := 0; i < attempt && b < maxBackoffMillis; i++ {
		b *= 2
	}
	if b > maxBackoffMillis {
		b = maxBackoffMillis
	}
	h := fnv.New64a()
	h.Write([]byte(cf))
	seed := h.Sum64() ^ uint64(attempt)*0xff51afd7ed558ccd ^ uint64(op)*0xc4ceb9fe1a85ec53
	return b * (0.5 + 0.5*jitter01(seed))
}

// retryOp runs one store operation, retrying it while it fails
// retryably. do returns
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
		if !faults.Retryable(err) {
			return total, err
		}
		if attempt+1 >= maxAttempts {
			e.eo.retryExhausted.Inc()
			e.eo.wastedSimMs.Add(wasted)
			return total, fmt.Errorf("retries exhausted after %d attempts: %w", attempt+1, err)
		}
		if bgt.spentMillis >= retryBudgetMillis {
			e.eo.retryExhausted.Inc()
			e.eo.wastedSimMs.Add(wasted)
			return total, fmt.Errorf("retry budget (%.0fms) exhausted: %w", retryBudgetMillis, err)
		}
		backoff := backoffFor(cf, attempt, bgt.ops)
		// Never charge past the budget: the final backoff truncates to
		// the remaining allowance, so backoff spend lands exactly on
		// the budget instead of overshooting the charged SimMillis.
		if rem := retryBudgetMillis - bgt.spentMillis; backoff > rem {
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
