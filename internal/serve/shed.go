package serve

import (
	"time"
)

// Adaptive load shedding (DESIGN.md §13). Admission is one comparison:
// Open sheds once Pressure() reaches Config.ShedThreshold. Pressure is 1
// at the MaxSessions cap and blends active-session load with aggregate
// slot-ring occupancy below it, so the default threshold of 1 is the
// hard cap and a lower one sheds earlier. Shedding degrades in order: a
// newcomer with strictly higher priority preempts the lowest-priority
// active session (ErrShed on the victim — its bits so far were already
// delivered, and a resumable victim keeps its checkpoint); everyone
// else is rejected with a RetryError carrying a pressure-scaled
// retry-after hint, machine-readable on the wire as
// "reject retry-after=<seconds> ...". TryPush's ErrBufferFull carries
// the same hint at full pressure. Shed decisions are visible through
// serve.shed.* and the serve.pressure gauge.

// RetryError wraps a load-shedding rejection (ErrOverloaded,
// ErrBufferFull) with a machine-readable backoff hint. errors.Is sees
// through it to the underlying rejection.
type RetryError struct {
	Err   error
	After time.Duration
}

// Error formats without fmt so no operand is boxed: the method is
// statically reachable from the serving hot path via Sink.EmitResult.
func (e *RetryError) Error() string {
	return e.Err.Error() + " (retry after " + e.After.String() + ")"
}

// Unwrap exposes the underlying rejection to errors.Is/As.
func (e *RetryError) Unwrap() error { return e.Err }

// retryErr wraps base with a hint that grows with pressure: base/2 when
// idle, up to 2x base at full pressure — monotone, so a client backing
// off by the hint naturally spreads a thundering herd.
func retryErr(base error, pressure float64) error {
	after := time.Duration((0.5 + 1.5*pressure) * float64(retryAfterBase))
	return &RetryError{Err: base, After: after}
}

// Pressure returns the current load-shedding pressure in [0,1].
func (srv *Server) Pressure() float64 {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.pressureLocked()
}

// pressureLocked is 1 at the MaxSessions cap. Below it, active-session
// load dominates (0.6) because it bounds everything else, and aggregate
// ring occupancy (0.3) says how far behind the workers are, so pressure
// stays under 0.9 until the cap. Caller holds srv.mu.
func (srv *Server) pressureLocked() float64 {
	n := len(srv.sessions)
	if n >= srv.cfg.MaxSessions {
		return 1
	}
	occ := 0.0
	if n > 0 {
		occ = float64(srv.met.queued.Load()) / float64(n*srv.cfg.SessionBuffer)
	}
	p := 0.6*float64(n)/float64(srv.cfg.MaxSessions) + 0.3*occ
	return min(max(p, 0), 1)
}
