package serve

import "time"

// Maintenance loop and stuck-stream watchdog (DESIGN.md §13). One
// server-owned goroutine, started by NewServer when Config.Now is set,
// does the periodic work: it sweeps parked resume checkpoints by TTL
// against Now and, with Config.StallTimeout set, runs the watchdog.
//
// A session can stop advancing without failing: a sink that blocks
// forever, a client that fills the slot ring and never reads a
// response, a decoder wedged behind either. The watchdog tracks each
// session's progress heartbeat (slots processed plus lifecycle steps). A
// session whose heartbeat has not moved for StallTimeout while work is
// pending — queued slots, or the worker parked inside a sink call — is
// aborted alone with the distinct ErrStalled verdict: producers unblock,
// the transport closes (which frees a worker stuck mid-write), and every
// other session keeps streaming. serve.watchdog.* metrics account for
// scans and stall verdicts.

// maintenanceTick returns the loop's cadence — a quarter of the
// shortest deadline it enforces, at least 1ms — and the watchdog's stall
// deadline in whole ticks (at least one: a sweep only observes
// tick-grained time).
func maintenanceTick(cfg Config) (tick time.Duration, stallTicks int) {
	tick = cfg.ResumeTTL / 4
	if cfg.StallTimeout > 0 {
		tick = min(tick, cfg.StallTimeout/4)
	}
	tick = max(tick, time.Millisecond)
	stallTicks = max(int((cfg.StallTimeout+tick-1)/tick), 1)
	return tick, stallTicks
}

// maintain is the maintenance goroutine. Drain stops it before
// finishing any session (drain has its own deadline discipline; two
// reapers racing would double-account).
func (srv *Server) maintain() {
	defer srv.maint.Done()
	t := time.NewTicker(srv.tick)
	defer t.Stop()
	for {
		select {
		case <-srv.stop:
			return
		case <-t.C:
			if srv.cfg.StallTimeout > 0 {
				srv.watchdogSweep()
			}
			srv.SweepResume(srv.cfg.Now())
		}
	}
}

// watchdogSweep runs one watchdog pass over the active sessions (a
// wblint hot-path root: it runs on a tight cadence against every live
// session, so no boxing, no escaping closures, no unbounded append).
// Exported to tests via WatchdogSweep.
func (srv *Server) watchdogSweep() {
	srv.met.watchdogScans.Add(1)
	srv.mu.Lock()
	sessions := make([]*Session, 0, len(srv.sessions))
	for s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	for _, s := range sessions {
		if !s.noteWatchdogTick(srv.stallTicks) {
			continue
		}
		srv.met.watchdogStalls.Add(1)
		s.stallAbort()
	}
}

// WatchdogSweep runs one watchdog pass synchronously. Deterministic
// tests drive the deadline by calling it repeatedly on a server without
// a maintenance loop (nil Config.Now); each call counts as one tick
// against StallTimeout.
func (srv *Server) WatchdogSweep() { srv.watchdogSweep() }

// noteWatchdogTick folds one watchdog observation into the session and
// reports whether the session just crossed the stall deadline. Only the
// watchdog sweep touches wdProgress/wdIdle. A session is eligible
// only while work is pending: published slots the worker has not
// returned, or the worker parked inside a sink call (busy) — an idle
// session waiting for its client is not stalled, it is just quiet.
func (s *Session) noteWatchdogTick(limit int) bool {
	prog := s.progress.Load()
	if prog != s.wdProgress {
		s.wdProgress = prog
		s.wdIdle = 0
		return false
	}
	if s.pub.Load() == s.head.Load() && s.busy.Load() == 0 {
		s.wdIdle = 0
		return false
	}
	s.wdIdle++
	return s.wdIdle == limit
}

// stallAbort delivers the watchdog's verdict: sticky ErrStalled, then
// the standard abort/finish so the worker can retire the session and
// the sink receives the error exactly once. A session that already
// failed for another reason keeps its first verdict.
func (s *Session) stallAbort() {
	if !s.setErr(ErrStalled) {
		return
	}
	s.abort()
	s.Finish()
}
