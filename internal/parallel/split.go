package parallel

import (
	"sync"
	"sync/atomic"
)

// Split is a reusable fork-join over the contiguous chunks of an index
// range, for loops that run too often to pay for an Engine: the uplink
// decoder's per-lane condition+score pass runs once per frame close. A
// Run splits [0, n) into the k chunks its caller asks for, runs the first
// on the calling goroutine and each other on a goroutine of its own, and
// returns once all of them have finished. Each chunk is told its index c,
// so a caller can hand chunk c scratch of its own sized from the same k.
// With k <= 1, or n < 2, it is the plain call fn(job, 0, 0, n) and starts
// no goroutine.
//
// Determinism is the caller's half of the contract: fn must write only
// state owned by the indices in [lo, hi) and scratch owned by chunk c,
// whose previous contents it must not read, so the result cannot depend on
// the chunking or on the order the chunks run in. Split's half is that a
// panic in any chunk is re-raised on the calling goroutine after every
// chunk has finished, with the value of the lowest chunk that panicked,
// which is the panic the serial loop would have raised first. An
// Engine.ForEach job therefore turns a panic inside its Split into that
// job's error, wherever the chunk ran.
//
// A Run allocates nothing once the Split has run (the first Run binds the
// goroutine body and sizes the panic slots): job is held by value and fn
// should be a top-level function, not a closure, for that to hold. The
// zero value is ready to use. A Split must not run two Runs at once, nor
// be copied after its first Run.
type Split[T any] struct {
	job    T
	fn     func(job T, c, lo, hi int)
	n, k   int
	next   atomic.Int64 // chunks claimed by started goroutines
	wg     sync.WaitGroup
	panics []any // panics[c] is chunk c's recovered panic value
	spawn  func()
}

// Run calls fn(job, c, lo, hi) for the k contiguous chunks [lo, hi) that
// cover [0, n), chunk c being [c·n/k, (c+1)·n/k). k is capped at n, so no
// chunk is empty and every c is below the k the caller asked for.
func (s *Split[T]) Run(n, k int, job T, fn func(job T, c, lo, hi int)) {
	k = min(k, n)
	if k <= 1 {
		if n > 0 {
			fn(job, 0, 0, n)
		}
		return
	}
	s.job, s.fn, s.n, s.k = job, fn, n, k
	if cap(s.panics) < k {
		s.panics = make([]any, k)
	}
	s.panics = s.panics[:k]
	if s.spawn == nil {
		s.spawn = s.worker
	}
	s.next.Store(0)
	s.wg.Add(k - 1)
	for c := 1; c < k; c++ {
		go s.spawn()
	}
	s.chunk(0)
	s.wg.Wait()
	var zero T
	s.job, s.fn = zero, nil // do not pin the job's memory between runs
	for c, p := range s.panics {
		if p != nil {
			clear(s.panics[c:])
			panic(p)
		}
	}
}

// worker claims the next unstarted chunk and runs it.
func (s *Split[T]) worker() {
	defer s.wg.Done()
	s.chunk(int(s.next.Add(1)))
}

// chunk runs chunk c, recording a panic instead of unwinding past Run.
func (s *Split[T]) chunk(c int) {
	defer func() {
		if r := recover(); r != nil {
			s.panics[c] = r
		}
	}()
	s.fn(s.job, c, c*s.n/s.k, (c+1)*s.n/s.k)
}
