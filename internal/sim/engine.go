// Package sim provides the discrete-event simulation engine that drives the
// Wi-Fi Backscatter experiments: a time-ordered event queue with a virtual
// clock in seconds. Determinism is guaranteed by breaking time ties in
// scheduling order, so a run with the same seed replays identically.
package sim

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine.
type Engine struct {
	q   eventQueue
	now float64
	seq int64
	// running guards against re-entrant Run calls.
	running bool

	// Metrics handles (nil when the engine is not instrumented).
	evDispatched *obs.Counter
	queueDepth   *obs.Gauge
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Instrument registers the engine's metrics on r: sim.events_dispatched
// counts executed events and sim.queue_depth tracks the queue length with
// its high-water mark. Passing a nil registry detaches the metrics.
func (e *Engine) Instrument(r *obs.Registry) {
	e.evDispatched = r.Counter("sim.events_dispatched")
	e.queueDepth = r.Gauge("sim.queue_depth")
}

// Schedule runs fn after delay seconds of virtual time. Negative delays are
// clamped to zero (run at the current instant, after already-queued events
// at this time).
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time t. Times in the past are
// clamped to the current time.
func (e *Engine) ScheduleAt(t float64, fn func()) {
	if fn == nil {
		// Programmer-error assert: a nil event function is a bug at the
		// scheduling call site, never reachable from validated user input
		// (library constructors reject bad parameters before scheduling).
		panic("sim: ScheduleAt with nil function")
	}
	if math.IsNaN(t) {
		// Programmer-error assert, like a nil fn: a NaN time is
		// unordered, so queueing it would break the heap's ordering and
		// let later events dispatch out of order.
		panic("sim: ScheduleAt with NaN time")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.q.push(event{at: t, seq: e.seq, fn: fn})
	e.queueDepth.Set(float64(len(e.q)))
}

// Run executes events in time order until the queue is empty or the clock
// would pass until (exclusive upper bound on event times). Events scheduled
// exactly at until do run. It returns the number of events executed.
func (e *Engine) Run(until float64) int {
	if e.running {
		// Programmer-error assert: calling Run from inside an event
		// callback would corrupt the clock; no input data reaches here.
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	n := 0
	for len(e.q) > 0 {
		if e.q[0].at > until {
			break
		}
		ev := e.q.pop()
		e.now = ev.at
		ev.fn()
		n++
		e.evDispatched.Inc()
	}
	if e.now < until && len(e.q) == 0 {
		// Queue drained: advance the clock to the horizon so
		// subsequent scheduling is relative to it.
		e.now = until
	}
	return n
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.q) }

// String implements fmt.Stringer for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now: %.6fs, pending: %d}", e.now, len(e.q))
}

type event struct {
	at  float64
	seq int64
	fn  func()
}

// eventQueue is a binary min-heap of events held by value, ordered by
// (at, seq). seq is unique, so the order is total and dispatch order does
// not depend on the heap's shape.
type eventQueue []event

// before reports whether a dispatches ahead of b.
func (a *event) before(b *event) bool {
	// A heap comparator needs a strict weak ordering; a tolerance here
	// would make "equal" intransitive and corrupt the queue. Timestamps
	// are only compared for tie-breaking, never for decode decisions.
	//wblint:ignore FS001 strict weak ordering requires exact comparison; ties fall through to seq
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev and sifts it up to its place.
func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the earliest event. The vacated slot is zeroed
// so the queue does not keep a dispatched closure alive.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}
