package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/csi"
	"repro/internal/uplink"
)

// Session is one admitted decode stream. Producers (a TCP handler, or an
// in-process caller) feed measurements with Push/TryPush; a dedicated
// worker goroutine drains them through the session's StreamDecoder and
// emits bits on the sink as the frame closes. Finish ends the input and
// flushes; Result blocks for the final outcome.
//
// Memory is bounded and steady-state allocation-free by construction:
// the session borrows a fixed ring of measurement slots (slotRing) from
// the server's pool at Open, re-pointed to the declared shape. Slots are
// handed to the worker in batches. Every slot the session ever fills has
// a position, counting up from 0; position p lives in slot p mod the
// ring's size. A producer, holding pmu, fills the positions from pub to
// tail (Push copies one measurement, the TCP reader parses m lines
// straight into the slots) and publishes them by moving pub; the worker
// decodes every position from head to pub on one wake-up and returns
// them all by moving head. So a batch pays once for what every
// measurement used to pay: the wake-up, the server-wide counters and the
// session's cursor. A producer waits only when the ring holds no free
// slot, and that wait is the backpressure. The worker returns the ring
// to the pool when its input ends; a parked resumable session keeps it
// until it finalizes.
type Session struct {
	srv  *Server
	id   uint64
	p    SessionParams
	sd   *uplink.StreamDecoder
	sink Sink

	ring *slotRing

	// The hand-off (see the type comment). pmu serializes producers with
	// each other and with Finish: a producer holds it from the first slot
	// it fills until it publishes them, so pub equals tail whenever pmu is
	// free, and the input never closes under a filled slot. batch is the
	// most slots the TCP reader fills before it publishes: a quarter of
	// the ring, at least one.
	pmu    sync.Mutex
	tail   int64        // next position to fill; owned by pmu
	pub    atomic.Int64 // positions below it are the worker's
	head   atomic.Int64 // positions below it are free again
	batch  int64
	closed atomic.Bool // input ended; stored under pmu after the last publish
	// idle is set by the worker before it sleeps on ring.wake, full by
	// a producer before it sleeps on ring.space; whoever moves what the
	// sleeper waits for clears the flag and signals it. Each side sets
	// its flag before it re-checks, so a signal is never lost.
	idle atomic.Bool
	full atomic.Bool

	quit    chan struct{} // closed by abort; unblocks a waiting Push
	quitted atomic.Int32  // CAS guard for closing quit (no closure: abort sits on watchdog hot paths)
	done    chan struct{} // closed when the worker has delivered the result

	emu sync.Mutex
	err error
	res *uplink.Result

	cmu    sync.Mutex
	closer closer // transport to force-close on abort

	// Resume state. rs is non-nil exactly when the session was opened
	// Resumable; token is its stable resume handle.
	rs    *resumeSink
	token string
	// consumed counts measurements accepted into the ring; a resuming
	// client reads it back as seq= and skips that many. gen fences
	// producers across a resume steal: wire pushes carry the generation
	// they attached under and ErrSessionClosed out once it moves on.
	consumed atomic.Int64
	gen      atomic.Uint32
	// Park bookkeeping, owned by srv.mu.
	detached bool
	parkedAt time.Time
	parkOrd  int64
	// prodExit, when non-nil, is closed by the current wire producer
	// (the TCP handler) on exit; ResumeSession waits on it so the old
	// connection's delivered lines are fully consumed before the resume
	// cursor is snapshotted.
	prodMu   sync.Mutex
	prodExit chan struct{}

	// Watchdog state: progress counts processed slots plus lifecycle
	// steps, busy marks the worker inside a Push/finalize (a stall there
	// counts even with an empty ring). wdProgress/wdIdle are touched only
	// by the watchdog goroutine.
	progress   atomic.Int64
	busy       atomic.Int32
	wdProgress int64
	wdIdle     int
}

// slotRing is a session's measurement slots and the two wake-up channels
// of its hand-off, pooled per server (Server.rings). One slab each backs
// the slots, their CSI row headers and their floats, so re-pointing a
// ring to a new shape allocates only when the shape outgrows every shape
// the ring has held. wake (producer to worker) and space (worker to
// producer) hold one token at most; a token an earlier session left
// behind costs the next one a spurious wake-up, since every wait
// re-checks what it waits for.
type slotRing struct {
	slots []csi.Measurement
	rows  [][]float64
	flat  []float64
	wake  chan struct{}
	space chan struct{}
}

// acquireRing takes the most recently returned ring from the server's
// pool (or builds one of SessionBuffer slots) and re-points its slots to
// p's shape.
func (srv *Server) acquireRing(p SessionParams) *slotRing {
	var r *slotRing
	srv.ringMu.Lock()
	if n := len(srv.rings); n > 0 {
		r = srv.rings[n-1]
		srv.rings[n-1] = nil
		srv.rings = srv.rings[:n-1]
	}
	srv.ringMu.Unlock()
	if r == nil {
		r = &slotRing{
			slots: make([]csi.Measurement, srv.cfg.SessionBuffer),
			wake:  make(chan struct{}, 1),
			space: make(chan struct{}, 1),
		}
	}
	r.shape(p.Antennas, p.Subchannels)
	return r
}

// shape lays every slot out as ants RSSI values followed by ants rows of
// subs CSI values (no rows when subs is 0) in the ring's slabs.
func (r *slotRing) shape(ants, subs int) {
	stride := ants * (1 + subs)
	nrows := 0
	if subs > 0 {
		nrows = len(r.slots) * ants
	}
	if cap(r.flat) < len(r.slots)*stride {
		r.flat = make([]float64, len(r.slots)*stride)
	}
	if cap(r.rows) < nrows {
		r.rows = make([][]float64, nrows)
	}
	for i := range r.slots {
		f := r.flat[i*stride : (i+1)*stride : (i+1)*stride]
		m := &r.slots[i]
		m.RSSI = f[:ants:ants]
		m.CSI = nil
		if subs == 0 {
			continue
		}
		m.CSI = r.rows[i*ants : (i+1)*ants : (i+1)*ants]
		for a := range m.CSI {
			lo := ants + a*subs
			m.CSI[a] = f[lo : lo+subs : lo+subs]
		}
	}
}

// releaseRing returns the session's ring to the pool once its worker
// has drained the input: the input closed with every filled slot
// published, and the worker has returned them all. A ring beyond
// MaxSessions idle ones is left to the collector.
func (s *Session) releaseRing() {
	srv := s.srv
	srv.ringMu.Lock()
	if len(srv.rings) < srv.cfg.MaxSessions {
		srv.rings = append(srv.rings, s.ring)
	}
	srv.ringMu.Unlock()
}

// newSession builds the session around a pooled slot ring. The caller
// holds srv.mu and starts the worker.
func newSession(srv *Server, id uint64, p SessionParams, sink Sink) (*Session, error) {
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(1 / p.BitRate))
	if err != nil {
		return nil, err
	}
	sd, err := dec.NewStream(p.Start, p.PayloadLen, p.Mode)
	if err != nil {
		return nil, err
	}
	ring := srv.acquireRing(p)
	s := &Session{
		srv:   srv,
		id:    id,
		p:     p,
		sd:    sd,
		sink:  sink,
		ring:  ring,
		batch: max(int64(len(ring.slots))/4, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if p.Resumable {
		s.rs = &resumeSink{
			s:     s,
			inner: sink,
			bits:  make([]uplink.BitDecision, 0, p.PayloadLen),
		}
		s.sink = s.rs
	}
	return s, nil
}

// ID returns the session's server-unique identifier.
func (s *Session) ID() uint64 { return s.id }

// Params returns the parameters the session was opened with.
func (s *Session) Params() SessionParams { return s.p }

// Token returns the session's resume token ("" unless Resumable).
func (s *Session) Token() string { return s.token }

// Consumed returns how many measurements the session has accepted; a
// resuming client skips that many from its replay buffer.
func (s *Session) Consumed() int64 { return s.consumed.Load() }

// beginProducer marks a wire handler as the session's current producer.
// The returned channel must be handed to endProducer when the handler
// exits; ResumeSession waits on it so a resume cannot snapshot the
// cursor while delivered lines are still being consumed.
func (s *Session) beginProducer() chan struct{} {
	ch := make(chan struct{})
	s.prodMu.Lock()
	s.prodExit = ch
	s.prodMu.Unlock()
	return ch
}

// endProducer retires a wire producer: deregister (unless a newer one
// took over) and wake any resume waiting on the drain.
func (s *Session) endProducer(ch chan struct{}) {
	s.prodMu.Lock()
	if s.prodExit == ch {
		s.prodExit = nil
	}
	s.prodMu.Unlock()
	close(ch)
}

// producerExit returns the current wire producer's exit channel, nil if
// no wire producer owns the session.
func (s *Session) producerExit() <-chan struct{} {
	s.prodMu.Lock()
	defer s.prodMu.Unlock()
	return s.prodExit
}

// Push copies one measurement into the session, blocking while the slot
// ring is full (the backpressure path — at a TCP transport the blocked
// reader stalls the client's sends). It fails with ErrSessionClosed
// after Finish or an abort, and with the session's sticky error once
// poisoned. A Push is a batch of one: it publishes its slot before it
// returns.
func (s *Session) Push(m csi.Measurement) error { return s.push(m, true) }

// TryPush is Push without the wait: a full slot ring returns
// ErrBufferFull immediately (wrapped in a RetryError carrying the
// backoff hint) and drops nothing already queued.
func (s *Session) TryPush(m csi.Measurement) error { return s.push(m, false) }

func (s *Session) push(m csi.Measurement, wait bool) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if err := s.admitLocked(0, false); err != nil {
		return err
	}
	dst, err := s.reserveLocked(wait)
	if err != nil {
		return err
	}
	if err := copyInto(dst, m, s.p); err != nil {
		// A shape violation poisons this session exactly like the
		// decoder's own shape check would — sticky error, input closed,
		// the failure emitted on the sink — and touches nobody else.
		if s.setErr(err) {
			s.srv.met.poisoned.Add(1)
		}
		s.finishLocked()
		return err
	}
	s.tail++
	s.publishLocked()
	return nil
}

// admitLocked reports whether a producer may fill slots: the input is
// open, the session neither poisoned nor aborted, and — for a fenced
// (wire) producer — gen is still the session's generation, so a handler
// whose session a resume on a newer connection stole fails out with
// ErrSessionClosed instead of feeding the new owner's stream. The caller
// holds pmu.
func (s *Session) admitLocked(gen uint32, fenced bool) error {
	if fenced && gen != s.gen.Load() {
		return ErrSessionClosed
	}
	if s.closed.Load() {
		return ErrSessionClosed
	}
	if err := s.Err(); err != nil {
		return err
	}
	select {
	case <-s.quit:
		// Aborted: refuse deterministically even while slots are free.
		return ErrSessionClosed
	default:
	}
	return nil
}

// reserveLocked returns the slot at tail for the caller to fill. When
// every slot is taken it publishes what is filled (the worker must not
// wait on slots the producer holds) and waits for the worker to return
// some, a wait an abort interrupts; without wait it fails with
// ErrBufferFull instead. The caller holds pmu.
func (s *Session) reserveLocked(wait bool) (*csi.Measurement, error) {
	n := int64(len(s.ring.slots))
	if s.tail-s.head.Load() == n {
		if !wait {
			s.srv.met.bufferFull.Add(1)
			// A full ring is occupancy 1 by definition; the server-wide
			// Pressure() would need srv.mu, which this path must not take.
			return nil, retryErr(ErrBufferFull, 1)
		}
		s.publishLocked()
		for {
			s.full.Store(true)
			if s.tail-s.head.Load() < n {
				s.full.Store(false)
				break
			}
			select {
			case <-s.ring.space:
			case <-s.quit:
				return nil, ErrSessionClosed
			}
		}
	}
	return &s.ring.slots[s.tail%n], nil
}

// publishLocked hands every filled slot to the worker as one batch: it
// moves pub, the session's resume cursor and the server-wide counters
// once, and wakes the worker if it sleeps. The caller holds pmu.
func (s *Session) publishLocked() {
	n := s.tail - s.pub.Load()
	if n == 0 {
		return
	}
	s.pub.Store(s.tail)
	s.consumed.Add(n)
	met := &s.srv.met
	met.queued.Add(n)
	met.measurements.Add(n)
	met.noteQueueDepth(int(s.tail - s.head.Load()))
	s.wakeWorker()
}

// wakeWorker signals the worker if it is asleep or about to sleep.
func (s *Session) wakeWorker() {
	if s.idle.Load() && s.idle.Swap(false) {
		select {
		case s.ring.wake <- struct{}{}:
		default:
		}
	}
}

// copyInto copies m into dst, a slot of shape p, enforcing that shape.
// It writes every field of the slot (RSSI, each CSI row, Timestamp)
// before the slot can be published, so a slot from a reused ring never
// shows an earlier session's values.
func copyInto(dst *csi.Measurement, m csi.Measurement, p SessionParams) error {
	if len(m.RSSI) != p.Antennas {
		return fmt.Errorf("serve: measurement has %d RSSI antennas, session declared %d",
			len(m.RSSI), p.Antennas)
	}
	if p.Subchannels > 0 {
		if len(m.CSI) != p.Antennas {
			return fmt.Errorf("serve: measurement has %d CSI antennas, session declared %d",
				len(m.CSI), p.Antennas)
		}
		for a, row := range m.CSI {
			if len(row) != p.Subchannels {
				return fmt.Errorf("serve: antenna %d has %d sub-channels, session declared %d",
					a, len(row), p.Subchannels)
			}
			copy(dst.CSI[a], row)
		}
	} else if len(m.CSI) != 0 {
		return fmt.Errorf("serve: measurement carries CSI, session declared an RSSI-only shape")
	}
	copy(dst.RSSI, m.RSSI)
	dst.Timestamp = m.Timestamp
	return nil
}

// wireInput is a TCP handler's side of the hand-off: it parses m lines
// straight into ring slots and publishes them in batches. It holds pmu
// from the first slot of a batch until it publishes, so no Finish, abort
// fence or resume steal lands between a slot being filled and the
// worker receiving it. The handler publishes before anything that can
// block: a socket read, a wait for a free slot (reserveLocked), a flush,
// EOF or an error line; and once it holds batch slots.
type wireInput struct {
	s    *Session
	gen  uint32 // the generation the handler attached under
	held bool   // holds s.pmu
}

// next returns the slot to parse the next line into.
func (w *wireInput) next() (*csi.Measurement, error) {
	s := w.s
	if !w.held {
		s.pmu.Lock()
		if err := s.admitLocked(w.gen, true); err != nil {
			s.pmu.Unlock()
			return nil, err
		}
		w.held = true
	}
	m, err := s.reserveLocked(true)
	if err != nil {
		w.publish()
		return nil, err
	}
	return m, nil
}

// commit adds the slot next returned, now parsed, to the batch, and
// publishes a full batch.
func (w *wireInput) commit() {
	s := w.s
	s.tail++
	if s.tail-s.pub.Load() >= s.batch {
		w.publish()
	}
}

// publish hands the batch to the worker and lets go of pmu.
func (w *wireInput) publish() {
	if w.held {
		w.s.publishLocked()
		w.held = false
		w.s.pmu.Unlock()
	}
}

// Finish ends the session's input; the worker flushes the stream (the
// partial-frame salvage batch decoders do at end of trace) and delivers
// the final result on the sink. Finish is idempotent and safe to call
// concurrently with producers.
func (s *Session) Finish() {
	s.pmu.Lock()
	s.finishLocked()
	s.pmu.Unlock()
}

// finishLocked closes the input. The caller holds pmu, so every filled
// slot is already published.
func (s *Session) finishLocked() {
	if !s.closed.Load() {
		s.closed.Store(true)
		s.wakeWorker()
	}
}

// abort force-ends the session — the drain deadline, the watchdog's
// stall verdict, a shed preemption, or a checkpoint eviction: it
// unblocks any producer waiting for a slot and closes the session's
// transport, which unblocks a worker stuck writing to a dead client.
// The input is closed by the normal Finish path once the producer backs
// off.
func (s *Session) abort() {
	if s.quitted.CompareAndSwap(0, 1) {
		close(s.quit)
	}
	s.cmu.Lock()
	c := s.closer
	s.cmu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// SetCloser registers the transport abort should force-close.
func (s *Session) SetCloser(c closer) {
	s.cmu.Lock()
	s.closer = c
	s.cmu.Unlock()
}

// swapCloser installs a new transport and returns the previous one (the
// resume steal path closes the old connection outside srv.mu).
func (s *Session) swapCloser(c closer) closer {
	s.cmu.Lock()
	old := s.closer
	s.closer = c
	s.cmu.Unlock()
	return old
}

// Done returns a channel closed once the worker has delivered the final
// result.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the session's sticky error, if any.
func (s *Session) Err() error {
	s.emu.Lock()
	defer s.emu.Unlock()
	return s.err
}

// setErr records the session's sticky error and reports whether this
// call was the one that set it — callers count poisoned/stalled/shed
// verdicts only on a true return, so a session dies under exactly one
// accounting bucket.
func (s *Session) setErr(err error) bool {
	s.emu.Lock()
	first := s.err == nil
	if first {
		s.err = err
	}
	s.emu.Unlock()
	return first
}

// Result blocks until the session completes and returns its outcome.
func (s *Session) Result() (*uplink.Result, error) {
	<-s.done
	s.emu.Lock()
	defer s.emu.Unlock()
	return s.res, s.err
}

// loop is the session's worker: the per-measurement serving hot path (a
// wblint hot-path root — no boxing, no escaping closures, no unbounded
// append). On each wake-up it takes every published slot, pushes each
// through the stream decoder (which copies it into the pooled frame
// arena) and returns the whole batch to the producer in one step. A
// push that closes the frame returns the slots decoded so far before its
// bits go to the sink, so a worker held in a sink call holds no slot. A
// decode or sink error poisons only this session: remaining queued slots
// drain without decoding and the error is delivered once at the end.
func (s *Session) loop() {
	poisoned := false
	slots := s.ring.slots
	n := int64(len(slots))
	var head int64
	for {
		pub := s.pub.Load()
		if pub == head {
			if s.awaitInput(head) {
				continue
			}
			break
		}
		if !poisoned {
			s.busy.Store(1)
			for p := head; p < pub; p++ {
				bits, err := s.sd.Push(slots[p%n])
				if err != nil {
					if s.setErr(err) {
						s.srv.met.poisoned.Add(1)
					}
					poisoned = true
					break
				}
				if len(bits) > 0 {
					s.returnSlots(head, p+1)
					head = p + 1
					if s.emitBits(bits) != nil {
						poisoned = true
						break
					}
				}
			}
			s.busy.Store(0)
		}
		s.returnSlots(head, pub)
		head = pub
	}
	// The input is closed and every filled slot was published before it
	// closed (Finish closes it under pmu), so nothing touches the slots
	// again.
	s.releaseRing()
	s.busy.Store(1)
	s.finalize()
}

// returnSlots hands the positions from head to end back to the producer
// in one step, waking it if it waits for a free slot.
func (s *Session) returnSlots(head, end int64) {
	if end == head {
		return
	}
	s.head.Store(end)
	if s.full.Load() && s.full.Swap(false) {
		select {
		case s.ring.space <- struct{}{}:
		default:
		}
	}
	s.srv.met.queued.Add(head - end)
	s.progress.Add(end - head)
}

// awaitInput sleeps the worker until a producer publishes past head or
// closes the input. It reports false once the input is closed and every
// slot is consumed.
func (s *Session) awaitInput(head int64) bool {
	s.idle.Store(true)
	// closed first: every publish precedes the close, so a pub read after
	// seeing it closed is final.
	closed := s.closed.Load()
	if s.pub.Load() != head {
		s.idle.Store(false)
		return true
	}
	if closed {
		return false
	}
	<-s.ring.wake
	return true
}

// emitBits delivers a decoded frame's bits on the sink; a sink error
// poisons the session.
func (s *Session) emitBits(bits []uplink.BitDecision) error {
	s.srv.met.bitsServed.Add(int64(len(bits)))
	err := s.sink.EmitBits(bits)
	if err != nil && s.setErr(err) {
		s.srv.met.poisoned.Add(1)
	}
	return err
}

// finalize flushes the stream (unless poisoned), delivers the final
// outcome on the sink, and retires the session. When the input ended
// inside the frame, Flush is what decodes it, so its bits go out here,
// ahead of the result, exactly as a frame closed by a push would have
// sent them (and a resumable session checkpoints them the same way).
func (s *Session) finalize() {
	err := s.Err()
	var res *uplink.Result
	if err == nil {
		closed := s.sd.Done()
		res, err = s.sd.Flush()
		if err == nil && !closed {
			if err = s.emitBits(s.sd.Bits()); err != nil {
				res = nil
			}
		}
		if err != nil {
			s.setErr(err)
		} else {
			s.emu.Lock()
			s.res = res
			s.emu.Unlock()
			s.srv.met.completed.Add(1)
		}
	}
	s.sink.EmitResult(res, err)
	// Deregister before releasing Result waiters: a caller that sees the
	// session complete must also see it gone from Stats().Active.
	s.srv.sessionClosed(s)
	close(s.done)
}
