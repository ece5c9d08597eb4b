// Package parallel provides the worker-pool trial engine that fans the
// evaluation's independent trials (distance × rate × decoder variant ×
// traffic sweeps, §7's methodology) across CPU cores.
//
// Every trial in internal/eval builds its own core.System from an explicit
// per-trial seed, so trials share no mutable state and can run in any
// order. The engine exploits that: jobs are indexed [0, n), workers pull
// indices from a bounded queue (backpressure, not unbounded goroutine
// fan-out), and each result lands in its index's slot. Folding the result
// slice in index order therefore produces output bit-identical to the
// serial loop it replaces — determinism is preserved by construction and
// locked in by the property tests in internal/eval.
//
// Split is the engine's small sibling for one loop inside a job: the
// decoder's per-channel condition+score pass, cut into one contiguous
// chunk per core on every frame close, with no allocation per call.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Engine is a fixed-width worker pool for independent, index-addressed
// jobs. The zero value is not useful; use New. An Engine is stateless
// between calls and safe for concurrent use.
type Engine struct {
	workers int
	queue   int
}

// New returns an engine with the given worker count. workers <= 0 selects
// GOMAXPROCS. The job queue is bounded at twice the worker count so a
// slow consumer backpressures submission instead of buffering every job.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, queue: 2 * workers}
}

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return e.workers }

// ForEach runs fn(i) for every i in [0, n). With one worker it runs the
// plain serial loop on the calling goroutine (no scheduling overhead, and
// exact serial semantics by definition). With more workers, jobs are
// dispatched through a bounded queue; after an error no job with a larger
// index starts, and the error reported is the one the serial loop would
// have hit first (the failing job with the smallest index). Jobs below the
// smallest failing index still run, since one of them may fail first.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if e.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := safeRun(fn, i); err != nil {
				return err
			}
		}
		return nil
	}

	jobs := make(chan int, e.queue)
	var (
		mu       sync.Mutex
		firstErr error
		errIdx   atomic.Int64 // smallest failing index so far; n while none
	)
	errIdx.Store(int64(n))
	record := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if int64(i) < errIdx.Load() {
			firstErr = err
			errIdx.Store(int64(i))
		}
	}

	var wg sync.WaitGroup
	workers := e.workers
	if workers > n {
		workers = n
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				if int64(i) > errIdx.Load() {
					continue // drain without running
				}
				if err := safeRun(fn, i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if int64(i) > errIdx.Load() {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// safeRun invokes fn(i), converting a panic into an error so one bad
// trial cannot take down the whole sweep's worker pool.
func safeRun(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: job %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// Map runs fn over [0, n) on the engine and returns the results in index
// order: out[i] = fn(i). Because every result is placed by index, the
// returned slice is identical to what the serial loop would build,
// regardless of worker count or completion order.
func Map[T any](e *Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := e.ForEach(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fold runs fn over [0, n) on the engine and folds every result into acc
// with merge, in strict index order, on the calling goroutine after all
// workers finish. The index-ordered fold is what makes worker-count
// invisible to non-commutative accumulation (float sums, gauge last-value
// semantics): results are produced concurrently but consumed serially in
// the same order a one-worker run would produce them.
func Fold[T any](e *Engine, n int, fn func(i int) (T, error), acc func(v T) error) error {
	out, err := Map(e, n, fn)
	if err != nil {
		return err
	}
	for _, v := range out {
		if err := acc(v); err != nil {
			return err
		}
	}
	return nil
}
