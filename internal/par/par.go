// Package par is the repository's tiny parallelism kernel: a bounded
// parallel-for used by the advisor's plan-space generation and branch
// and bound solver, and by the harness's install, which materializes a
// schema's column families one per worker. Callers
// write results into index-addressed slots (or, for install, into
// distinct families) and assemble them in deterministic order after
// the barrier, so worker count never changes observable output — only
// wall-clock time.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: zero or negative means
// runtime.NumCPU(), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// Do runs fn(0), …, fn(n-1), at most `workers` concurrently, and
// returns after all calls complete. With workers <= 1 (or n <= 1) the
// calls run inline on the caller's goroutine in index order. Panics in
// workers are captured and re-raised on the caller's goroutine once all
// workers have stopped.
//
// fn must write any output into per-index storage; Do provides the
// barrier, not the ordering of execution.
func Do(n, workers int, fn func(i int)) {
	DoWorker(n, workers, func(_, i int) { fn(i) })
}

// DoWorker is Do for callers that keep per-worker state (scratch
// buffers, problem clones): fn additionally receives a worker id in
// [0, workers) that is never used by two concurrent calls.
func DoWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}

	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panics  []any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stopped.Load() {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							stopped.Store(true)
							panicMu.Lock()
							panics = append(panics, r)
							panicMu.Unlock()
						}
					}()
					fn(worker, i)
				}()
			}
		}(w)
	}
	wg.Wait()
	if len(panics) > 0 {
		panic(fmt.Sprintf("par: %d worker(s) panicked; first: %v", len(panics), panics[0]))
	}
}
