package parallel

import (
	"math"
	"runtime"
	"sync/atomic"
)

// Split is a reusable fork-join over the contiguous chunks of an index
// range, for loops that run too often to pay for an Engine: the uplink
// decoder's per-lane condition+score pass runs once per frame close. A
// Run splits [0, n) into the k chunks its caller asks for, offers the Run
// to the package's parked lane workers, runs every chunk that no worker
// has claimed on the calling goroutine, and returns once all of them have
// finished. Each chunk is told its index c, so a caller can hand chunk c
// scratch of its own sized from the same k. With k <= 1, or n < 2, it is
// the plain call fn(job, 0, 0, n).
//
// The lane workers are package-level, at most GOMAXPROCS−1 of them,
// started on demand and parked between Runs; they do not belong to a
// Split, so a Split that is dropped (with the pooled scratch it lives in)
// strands none. A Run never waits for a worker to wake: chunks are
// claimed through an atomic counter, so when every worker is busy, or
// slow to start, the caller runs the chunks itself and waits only for
// chunks a worker has claimed.
//
// Determinism is the caller's half of the contract: fn must write only
// state owned by the indices in [lo, hi) and scratch owned by chunk c,
// whose previous contents it must not read, so the result cannot depend on
// the chunking or on which goroutine runs which chunk. Split's half is
// that a panic in any chunk is re-raised on the calling goroutine after
// every chunk has finished, with the value of the lowest chunk that
// panicked, which is the panic the serial loop would have raised first.
// An Engine.ForEach job therefore turns a panic inside its Split into that
// job's error, wherever the chunk ran.
//
// A Run allocates nothing once the Split has run and the lane workers
// have started (the first Run sizes the panic slots and the completion
// signal, and each worker is started once): job is held by value and fn
// should be a top-level function, not a closure, for that to hold. The
// zero value is ready to use. A Split must not run two Runs at once, nor
// be copied after its first Run.
type Split[T any] struct {
	job    T
	fn     func(job T, c, lo, hi int)
	n, k   int
	claims atomic.Uint64 // the Run's chunk count k << 32 | its next unclaimed chunk
	left   atomic.Int64  // chunks not yet finished
	done   chan struct{} // a worker that finishes the last chunk signals here
	panics []any         // panics[c] is chunk c's recovered panic value
}

// Run calls fn(job, c, lo, hi) for the k contiguous chunks [lo, hi) that
// cover [0, n), chunk c being [c·n/k, (c+1)·n/k). k is capped at n (and
// at 2³¹−1), so no chunk is empty and every c is below the k the caller
// asked for.
func (s *Split[T]) Run(n, k int, job T, fn func(job T, c, lo, hi int)) {
	k = min(k, n, math.MaxInt32)
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
	if s.done == nil {
		s.done = make(chan struct{}, 1)
	}
	s.left.Store(int64(k))
	// Publishing the claims word publishes the fields above: a worker
	// reads them only after it has claimed a chunk. A worker offered an
	// earlier Run that wakes only now finds every chunk of that Run
	// claimed, or claims a chunk of this one, so it never reads a field
	// of the wrong Run.
	s.claims.Store(uint64(k) << 32)
	for range min(k, runtime.GOMAXPROCS(0)) - 1 {
		if !offer(s) {
			break
		}
	}
	if !s.runChunks() {
		<-s.done
	}
	var zero T
	s.job, s.fn = zero, nil // do not pin the job's memory between runs
	for c, p := range s.panics {
		if p != nil {
			clear(s.panics[c:])
			panic(p)
		}
	}
}

// claim takes the next unclaimed chunk of the current Run, if any is left.
func (s *Split[T]) claim() (c int, ok bool) {
	for {
		w := s.claims.Load()
		if uint32(w) >= uint32(w>>32) {
			return 0, false
		}
		if s.claims.CompareAndSwap(w, w+1) {
			return int(uint32(w)), true
		}
	}
}

// runChunks claims and runs chunks until none is left unclaimed, and
// reports whether it finished the Run's last chunk.
func (s *Split[T]) runChunks() (last bool) {
	for {
		c, ok := s.claim()
		if !ok {
			return last
		}
		s.chunk(c)
		last = s.left.Add(-1) == 0
	}
}

// help is a lane worker's share of a Run: the chunks it claims, and the
// completion signal if it finishes the last one.
func (s *Split[T]) help() {
	if s.runChunks() {
		s.done <- struct{}{}
	}
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

// helper is a Run a lane worker can help with.
type helper interface{ help() }

// The package's lane workers: lanesStarted counts them, and lanesPark
// hands a Run to one that is parked. They live as long as the process,
// like the runtime's own idle Ps, and cost a parked goroutine each.
var (
	lanesStarted atomic.Int64
	lanesPark    = make(chan helper)
)

// offer hands h to a parked lane worker, or to a new one while fewer than
// GOMAXPROCS−1 have started, and reports whether one took it.
func offer(h helper) bool {
	select {
	case lanesPark <- h:
		return true
	default:
	}
	for {
		n := lanesStarted.Load()
		if n >= int64(runtime.GOMAXPROCS(0)-1) {
			return false
		}
		if lanesStarted.CompareAndSwap(n, n+1) {
			go laneWorker(h)
			return true
		}
	}
}

// laneWorker helps with h, then with every Run handed to it while parked.
func laneWorker(h helper) {
	h.help()
	for h := range lanesPark {
		h.help()
	}
}
