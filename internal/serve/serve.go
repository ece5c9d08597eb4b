// Package serve is the concurrent decode-serving layer: it multiplexes
// many simultaneous measurement streams — each one tag transmission being
// captured somewhere — over the streaming decode core, the step from "a
// helper decoding one tag" (the paper's single-reader prototype) to a
// service shape that can sit behind heavy traffic.
//
// One Session runs one uplink.StreamDecoder (whose frame arena lives in
// the shared pooled dsp scratch, so a thousand sessions reuse the same
// buffers frame after frame) fed through a fixed ring of measurement
// slots by a dedicated worker goroutine. Rings are pooled per server:
// Open takes an idle one and re-points it to the session's shape, the
// worker returns it when the session's input ends, and a parked
// resumable session keeps its ring until it finalizes. The layer is
// production-shaped by construction:
//
//   - Bounded admission. Open rejects with ErrOverloaded once MaxSessions
//     are active and with ErrDraining during shutdown — overload is an
//     explicit refusal, never queue growth.
//   - Bounded per-session buffering. The slot ring holds SessionBuffer
//     measurements; TryPush rejects with ErrBufferFull when it is full,
//     and the blocking Push waits for a slot, which is what turns into
//     TCP backpressure at the transport (the reader stops reading, the
//     client's sends stall). Nothing ever buffers beyond the ring.
//   - Poison containment. A malformed stream (backwards timestamps, shape
//     drift) poisons only its own session: the error is delivered on that
//     session's sink and every other session decodes on, bit-identical to
//     what it would have produced alone.
//   - Graceful drain. Drain stops admission, finishes every in-frame
//     session (flushing partial frames exactly like the batch decoders
//     do at end of trace), and force-aborts whatever is left at the hard
//     deadline.
//   - Deterministic instrumentation. Counters are atomics internally and
//     publish into an internal/obs registry on demand (obs registries are
//     single-goroutine by contract, so the concurrent layer cannot write
//     them directly).
//
// The wall clock enters only through Config.Now, injected by the daemon
// (cmd/wbserved passes time.Now); the library itself never reads it, so
// tests run deterministic and wblint's DT001 holds by construction.
// See DESIGN.md §12 for the session lifecycle and the drain state
// machine, and cmd/wbserved / cmd/wbload for the daemon and the
// load-replay client.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/uplink"
)

// Rejection and lifecycle errors. Open and Push return these wrapped or
// verbatim; transports map them onto wire-level reject reasons.
var (
	// ErrOverloaded rejects an Open when MaxSessions are already active.
	ErrOverloaded = errors.New("serve: at session capacity")
	// ErrDraining rejects an Open during shutdown.
	ErrDraining = errors.New("serve: draining")
	// ErrBufferFull rejects a TryPush when the session's slot ring is full.
	ErrBufferFull = errors.New("serve: session buffer full")
	// ErrSessionClosed rejects a Push after Finish or an abort.
	ErrSessionClosed = errors.New("serve: session closed")
	// ErrStalled is the sticky verdict of a session the watchdog aborted
	// because its sink or decoder stopped advancing.
	ErrStalled = errors.New("serve: session stalled past the watchdog deadline")
	// ErrShed is the sticky verdict of a session preempted by the load
	// shedder to admit a higher-priority stream.
	ErrShed = errors.New("serve: session shed for a higher-priority stream")
	// ErrCheckpointExpired is the sticky verdict of a parked resumable
	// session evicted by TTL or checkpoint-capacity pressure.
	ErrCheckpointExpired = errors.New("serve: resume checkpoint expired")
	// ErrUnknownResume rejects a resume whose token matches no parked
	// session (never issued, already expired, or already evicted).
	ErrUnknownResume = errors.New("serve: unknown or expired resume token")
)

// SessionParams declares one measurement stream: what transmission the
// session expects and the fixed shape of every measurement it will carry.
type SessionParams struct {
	// Mode selects CSI or RSSI decoding.
	Mode uplink.StreamMode
	// BitRate is the tag's uplink bit rate in bits/s.
	BitRate float64
	// Start is the expected transmission start time in seconds.
	Start float64
	// PayloadLen is the expected payload length in bits.
	PayloadLen int
	// Antennas and Subchannels fix the measurement shape. Subchannels may
	// be 0 for an RSSI-only stream (CSI rows are then empty).
	Antennas, Subchannels int
	// Priority ranks the stream for load shedding, 0 (shed first) through
	// 9 (shed last). At capacity a newcomer preempts a strictly
	// lower-priority active session instead of being rejected.
	Priority int
	// Resumable opts the session into checkpointing: it gets a stable
	// token on the ok line and survives a transport cut as a parked
	// checkpoint until resumed or expired.
	Resumable bool
}

// MaxPayloadLen bounds the declarable payload length. The wire parser is
// fuzzed; without the cap a single hostile hello ("payload 1e9 bits")
// makes the decoder preallocate gigabytes of bins.
const MaxPayloadLen = 1 << 20

// Validate checks the parameters a transport cannot default away.
func (p SessionParams) Validate() error {
	if p.Mode != uplink.StreamCSI && p.Mode != uplink.StreamRSSI {
		return fmt.Errorf("serve: unknown stream mode %d", int(p.Mode))
	}
	// NaN compares false against everything, so "<= 0" alone would admit
	// it (a FuzzWireProtocol finding); require a positive finite rate.
	if !(p.BitRate > 0) || math.IsInf(p.BitRate, 0) {
		return fmt.Errorf("serve: bit rate must be positive and finite, got %v", p.BitRate)
	}
	if math.IsNaN(p.Start) || math.IsInf(p.Start, 0) {
		return fmt.Errorf("serve: start time must be finite, got %v", p.Start)
	}
	if p.PayloadLen <= 0 {
		return fmt.Errorf("serve: payload length must be positive, got %d", p.PayloadLen)
	}
	if p.PayloadLen > MaxPayloadLen {
		return fmt.Errorf("serve: payload length %d exceeds the %d-bit cap", p.PayloadLen, MaxPayloadLen)
	}
	if p.Priority < 0 || p.Priority > 9 {
		return fmt.Errorf("serve: priority must be 0-9, got %d", p.Priority)
	}
	if p.Antennas <= 0 || p.Antennas > 64 {
		return fmt.Errorf("serve: implausible antenna count %d", p.Antennas)
	}
	if p.Subchannels < 0 || p.Subchannels > 1024 {
		return fmt.Errorf("serve: implausible sub-channel count %d", p.Subchannels)
	}
	if p.Mode == uplink.StreamCSI && p.Subchannels == 0 {
		return fmt.Errorf("serve: CSI mode needs at least one sub-channel")
	}
	return nil
}

// Sink receives a session's decoded output. EmitBits is called from the
// session's worker goroutine the moment the frame closes; EmitResult is
// called exactly once when the session completes (flush, poison, or
// abort). Implementations must not block indefinitely — a sink that never
// returns holds its session's worker hostage until the drain deadline
// force-closes the transport.
type Sink interface {
	// EmitBits delivers the frame's bits as soon as they decode. A
	// returned error ends the session (the client is gone).
	EmitBits(bits []uplink.BitDecision) error
	// EmitResult delivers the final outcome: the full decode result, or
	// the first error the session hit (push failure, flush failure, or a
	// sink write failure).
	EmitResult(res *uplink.Result, err error)
}

// Config parameterizes a Server. The zero value is usable: NewServer
// resolves every zero field to its default once, and a nil Now keeps the
// layer fully deterministic (no deadlines, no background maintenance).
// README "Serving" tabulates each field with its wbserved flag.
type Config struct {
	// MaxSessions bounds concurrently active sessions (admission
	// control). Zero means DefaultMaxSessions.
	MaxSessions int
	// SessionBuffer is the per-session measurement slot ring size. Zero
	// means DefaultSessionBuffer.
	SessionBuffer int
	// IdleTimeout bounds the wait for the next line on a TCP connection;
	// a session that stops sending is flushed and closed. Zero (or a nil
	// Now) disables deadlines.
	IdleTimeout time.Duration
	// WriteTimeout bounds one response write to a TCP client; a client
	// that stops reading poisons only its own session. Zero (or a nil
	// Now) disables the deadline.
	WriteTimeout time.Duration
	// DrainTimeout is the hard deadline for Drain: sessions still running
	// when it expires are force-aborted. Zero means DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Now supplies the wall clock for deadlines, checkpoint ages and the
	// drain-duration metric, and a non-nil Now starts the maintenance
	// loop (TTL sweeps and the watchdog). The daemon injects time.Now;
	// nil disables all of it, which is what deterministic tests want.
	Now func() time.Time

	// ResumeTTL is how long a detached resumable checkpoint is kept
	// before a sweep evicts it. Zero means DefaultResumeTTL. The
	// maintenance loop sweeps against Now; deterministic tests call
	// SweepResume with fabricated times instead.
	ResumeTTL time.Duration
	// MaxParked bounds detached resumable checkpoints; beyond it the
	// oldest parked checkpoint is evicted immediately (capacity
	// accounting, independent of the TTL). Zero means DefaultMaxParked.
	MaxParked int
	// TokenSeed salts resume tokens so they are stable per server config,
	// not guessable across deployments. Zero is a valid seed.
	TokenSeed uint64
	// StallTimeout arms the stuck-stream watchdog: a session whose worker
	// makes no progress for this long while input is pending (queued
	// slots, or a producer blocked on a full ring) is aborted with
	// ErrStalled. Zero disables the watchdog.
	StallTimeout time.Duration
	// ShedThreshold is the pressure at which Open starts shedding: from
	// it on, a newcomer preempts a strictly lower-priority session or is
	// rejected. Pressure reads 1 at MaxSessions, so a value outside
	// (0,1] (zero included) means the hard cap only.
	ShedThreshold float64
}

// Defaults for Config's zero fields.
const (
	DefaultMaxSessions   = 64
	DefaultSessionBuffer = 256
	DefaultDrainTimeout  = 5 * time.Second
	DefaultResumeTTL     = 2 * time.Minute
	DefaultMaxParked     = 256
)

const (
	// retryAfterBase scales the retry-after hint of ErrOverloaded and
	// ErrBufferFull rejections (shed.go).
	retryAfterBase = 500 * time.Millisecond
	// resumeDrainWait bounds how long ResumeSession waits for the old
	// connection's handler to exit on its own EOF (resume.go).
	resumeDrainWait = 5 * time.Second
)

// withDefaults resolves every zero or out-of-range field to the value
// the server runs with.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.SessionBuffer <= 0 {
		c.SessionBuffer = DefaultSessionBuffer
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.ResumeTTL <= 0 {
		c.ResumeTTL = DefaultResumeTTL
	}
	if c.MaxParked <= 0 {
		c.MaxParked = DefaultMaxParked
	}
	if !(c.ShedThreshold > 0 && c.ShedThreshold <= 1) {
		c.ShedThreshold = 1
	}
	return c
}

// Server states: the drain state machine (DESIGN.md §12).
const (
	stateRunning = iota
	stateDraining
	stateClosed
)

// Server multiplexes concurrent decode sessions under one admission
// policy. All methods are safe for concurrent use.
type Server struct {
	cfg Config

	mu        sync.Mutex
	state     int
	sessions  map[*Session]struct{}
	conns     map[closer]struct{} // live transports (force-closed at the drain deadline)
	nextID    uint64
	drained   chan struct{} // closed when Drain completes
	resumable map[string]*Session
	nParked   int   // detached checkpoints (capacity accounting)
	parkSeq   int64 // monotone detach order for oldest-first eviction

	// Maintenance loop (watchdog.go): tick is its cadence, stallTicks the
	// watchdog deadline counted in ticks. Drain closes stop and waits on
	// maint.
	tick       time.Duration
	stallTicks int
	stop       chan struct{}
	maint      sync.WaitGroup

	wg  sync.WaitGroup // one per session worker
	met metrics

	// Idle slot rings of SessionBuffer slots, most recently returned last
	// (session.go). ringMu nests inside mu.
	ringMu sync.Mutex
	rings  []*slotRing
}

// closer is the slice of a transport a Server can force-close.
type closer interface{ Close() error }

// NewServer builds a Server with cfg's defaults resolved. A non-nil
// cfg.Now starts the maintenance loop; it stops when Drain begins.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	srv := &Server{
		cfg:       cfg,
		sessions:  make(map[*Session]struct{}),
		conns:     make(map[closer]struct{}),
		drained:   make(chan struct{}),
		resumable: make(map[string]*Session),
		stop:      make(chan struct{}),
	}
	srv.tick, srv.stallTicks = maintenanceTick(cfg)
	if cfg.Now != nil {
		srv.maint.Add(1)
		go srv.maintain()
	}
	return srv
}

// Config returns the server's effective configuration: the Config it was
// built with, every zero or out-of-range field resolved to the value the
// server runs with.
func (srv *Server) Config() Config { return srv.cfg }

// Open admits one new session, or rejects it: ErrDraining during
// shutdown, a validation error for bad parameters, and under load the
// shed policy decides — once Pressure reaches ShedThreshold (it reads 1
// at the MaxSessions cap) a strictly higher-priority newcomer preempts
// the lowest-priority active session (ErrShed on the victim), everyone
// else gets ErrOverloaded wrapped in a RetryError carrying a
// pressure-scaled retry-after hint. The session's worker starts
// immediately; decoded bits flow to sink.
func (srv *Server) Open(p SessionParams, sink Sink) (*Session, error) {
	if sink == nil {
		return nil, fmt.Errorf("serve: nil sink")
	}
	if err := p.Validate(); err != nil {
		srv.met.rejectedBad.Add(1)
		return nil, err
	}
	srv.mu.Lock()
	if srv.state != stateRunning {
		srv.met.rejectedDraining.Add(1)
		srv.mu.Unlock()
		return nil, ErrDraining
	}
	var victim *Session
	pressure := srv.pressureLocked()
	if pressure >= srv.cfg.ShedThreshold {
		victim = srv.victimLocked(p.Priority)
		if victim == nil {
			srv.met.rejectedOverload.Add(1)
			srv.mu.Unlock()
			return nil, retryErr(ErrOverloaded, pressure)
		}
	}
	s, err := newSession(srv, srv.nextID, p, sink)
	if err != nil {
		srv.mu.Unlock()
		return nil, err
	}
	srv.nextID++
	srv.sessions[s] = struct{}{}
	if p.Resumable {
		srv.registerResumableLocked(s)
	}
	active := len(srv.sessions)
	srv.met.accepted.Add(1)
	srv.wg.Add(1)
	srv.mu.Unlock()
	if victim != nil {
		srv.shed(victim)
	}
	srv.met.noteActive(active)
	go s.loop()
	return s, nil
}

// victimLocked picks the session the shed policy would preempt to admit
// a stream of priority prio: the lowest-priority active session, oldest
// first on ties, and only if strictly below prio. Caller holds srv.mu.
func (srv *Server) victimLocked(prio int) *Session {
	var v *Session
	for s := range srv.sessions {
		if s.p.Priority >= prio {
			continue
		}
		if v == nil || s.p.Priority < v.p.Priority ||
			(s.p.Priority == v.p.Priority && s.id < v.id) {
			v = s
		}
	}
	return v
}

// shed preempts one victim session: sticky ErrShed verdict, producers
// unblocked, transport closed, input ended so the worker can finalize.
// The victim stays in srv.sessions until its worker retires it, so the
// active count can transiently overshoot MaxSessions by in-flight
// victims.
func (srv *Server) shed(s *Session) {
	if s.setErr(ErrShed) {
		srv.met.shedPreempted.Add(1)
	}
	s.abort()
	s.Finish()
}

// sessionClosed retires a finished session (its worker is exiting). A
// resumable session's checkpoint is parked at this point — the recorded
// bits and result stay replayable until TTL or capacity evicts them, so
// a client cut between the server writing "done" and reading it can
// still resume and re-receive the final lines.
func (srv *Server) sessionClosed(s *Session) {
	srv.mu.Lock()
	delete(srv.sessions, s)
	active := len(srv.sessions)
	if s.rs != nil {
		srv.parkLocked(s)
	}
	srv.mu.Unlock()
	srv.met.noteActive(active)
	srv.wg.Done()
}

// Drain executes the shutdown state machine: running → draining (stop
// admitting and the maintenance loop, Finish every live session so
// in-frame captures flush their partial frames) → closed. Sessions still running at the DrainTimeout
// hard deadline are force-aborted (their transports closed, which
// unblocks any worker stuck writing to a dead client). It returns nil
// when every session completed within the deadline, and an error naming
// the aborted count otherwise. Drain is idempotent; concurrent callers
// all block until the first completes.
func (srv *Server) Drain() error {
	srv.mu.Lock()
	if srv.state != stateRunning {
		srv.mu.Unlock()
		<-srv.drained
		if n := srv.met.abortedSessions.Load(); n > 0 {
			return fmt.Errorf("serve: drain aborted %d sessions at the deadline", n)
		}
		return nil
	}
	srv.state = stateDraining
	sessions := make([]*Session, 0, len(srv.sessions))
	for s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	close(srv.stop)
	srv.maint.Wait()

	var t0 time.Time
	if srv.cfg.Now != nil {
		t0 = srv.cfg.Now()
	}
	// Finish concurrently: one slow session's producer (blocked on a full
	// ring behind a stuck sink) must not serialize the rest of the drain.
	var finishers sync.WaitGroup
	for _, s := range sessions {
		finishers.Add(1)
		go func(s *Session) {
			defer finishers.Done()
			s.Finish()
		}(s)
	}

	workers := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(workers)
	}()
	timer := time.NewTimer(srv.cfg.DrainTimeout)
	defer timer.Stop()
	aborted := false
	leaked := false
	select {
	case <-workers:
	case <-timer.C:
		aborted = true
		srv.abortRemaining()
		// The abort unblocked producers (quit) and transports (Close).
		// A worker held hostage by an in-process sink that ignores the
		// contract has nothing left to unblock it — bound this wait too
		// and leak the worker rather than hang a daemon mid-exit.
		grace := time.NewTimer(srv.cfg.DrainTimeout)
		select {
		case <-workers:
		case <-grace.C:
			leaked = true
		}
		grace.Stop()
	}
	if !leaked {
		finishers.Wait()
	}
	// Every session has delivered its final line. Close the transports
	// whose handlers still wait for input no session will take (a mute
	// client would otherwise hold its handler, and its socket, forever).
	srv.closeConns()

	srv.mu.Lock()
	srv.state = stateClosed
	srv.mu.Unlock()
	if srv.cfg.Now != nil {
		srv.met.setDrainSeconds(srv.cfg.Now().Sub(t0).Seconds())
	}
	srv.met.drainedClean.Store(boolInt(!aborted))
	close(srv.drained)
	if leaked {
		return fmt.Errorf("serve: drain leaked workers stuck in sinks after aborting %d sessions",
			srv.met.abortedSessions.Load())
	}
	if n := srv.met.abortedSessions.Load(); n > 0 {
		return fmt.Errorf("serve: drain aborted %d sessions at the deadline", n)
	}
	return nil
}

// abortRemaining force-closes everything still alive at the drain
// deadline: sessions (unblocking their producers) and raw transports
// (unblocking workers stuck mid-write and handlers stuck mid-read).
func (srv *Server) abortRemaining() {
	srv.mu.Lock()
	sessions := make([]*Session, 0, len(srv.sessions))
	for s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	for _, s := range sessions {
		s.abort()
		srv.met.abortedSessions.Add(1)
	}
	srv.closeConns()
}

// closeConns closes every registered transport.
func (srv *Server) closeConns() {
	srv.mu.Lock()
	conns := make([]closer, 0, len(srv.conns))
	for c := range srv.conns {
		conns = append(conns, c)
	}
	srv.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// addConn registers a live transport for force-close at the drain
// deadline. It reports false when the server is no longer accepting.
func (srv *Server) addConn(c closer) bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.state != stateRunning {
		return false
	}
	srv.conns[c] = struct{}{}
	return true
}

// removeConn forgets a transport that closed on its own.
func (srv *Server) removeConn(c closer) {
	srv.mu.Lock()
	delete(srv.conns, c)
	srv.mu.Unlock()
}

// PublishMetrics writes the server's counters into an obs registry —
// call it from one goroutine with a registry the concurrent layer does
// not touch (obs registries are goroutine-confined by contract). Publish
// into a fresh registry each time; counters add, they do not overwrite.
func (srv *Server) PublishMetrics(r *obs.Registry) {
	srv.met.publish(r)
	r.Gauge("serve.pressure").Set(srv.Pressure())
	srv.mu.Lock()
	parked := srv.nParked
	srv.mu.Unlock()
	r.Gauge("serve.resume.parked").Set(float64(parked))
}

// Stats returns a point-in-time snapshot of the serving counters.
func (srv *Server) Stats() Stats { return srv.met.stats() }

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
