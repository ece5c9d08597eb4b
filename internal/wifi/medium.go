package wifi

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// Transmission describes one frame's time on air, delivered to medium
// listeners (e.g. the Wi-Fi reader in monitor mode, or the tag's energy
// detector which only sees the on/off envelope).
type Transmission struct {
	// Station that transmitted.
	Station *Station
	// Frame on air, a copy of the queued frame. For collided
	// transmissions the content is undecodable, but the energy is still
	// present.
	Frame Frame
	// Rate used.
	Rate Rate
	// Start and End of the frame on air, in seconds.
	Start, End float64
	// Collided marks simultaneous transmissions (undecodable anywhere).
	Collided bool
	// Lost marks frames that failed at the intended receiver due to
	// channel error (PER); monitor-mode listeners may still use them.
	Lost bool
}

// Listener receives every transmission on the medium, in time order. It
// gets its own copy of the Transmission, so it may keep tx; the Payload it
// carries is shared and read-only (see Frame.Payload).
type Listener func(tx Transmission)

// Impairment lets a fault layer perturb the medium (see internal/faults).
// All methods are called synchronously from the medium's event handlers;
// an implementation must be deterministic given the simulation history and
// must not consume the medium's own randomness stream, so that a no-op
// impairment leaves a run bit-for-bit identical to Impair == nil.
type Impairment interface {
	// FrameLost reports whether the frame st puts on air at start is
	// destroyed by injected interference. It applies to every frame type,
	// on top of (and after) the SNR-based PER model.
	FrameLost(st *Station, start float64) bool
	// SNROffset is added to the link SNR before the PER model, letting
	// fades raise the channel's intrinsic loss.
	SNROffset(now float64) units.DB
	// StalledUntil reports that st must sit out contention until the
	// returned time (when ok is true), starving downstream listeners of
	// its traffic.
	StalledUntil(st *Station, now float64) (until float64, ok bool)
}

// Medium is a single-channel CSMA/CA (DCF) medium. Contention is resolved
// in rounds: whenever the channel has been idle for DIFS and stations have
// queued frames, each ready station draws a backoff from its contention
// window; the minimum wins the round and ties collide.
type Medium struct {
	eng          *sim.Engine
	rnd          *rng.Stream
	stations     []*Station
	busyUntil    float64
	navUntil     float64
	navOwner     *Station
	roundPending bool
	listeners    []Listener
	met          mediumMetrics

	// roundFn and kickFn are round and kick bound once, so scheduling one
	// forms no method value; ready and winners are round's scratch.
	roundFn, kickFn func()
	ready, winners  []*Station

	// Impair, when non-nil, injects faults into contention and delivery.
	// Set it before traffic starts (core wires the fault injector here).
	Impair Impairment
}

// mediumMetrics holds the medium's obs handles. The zero value (all nil)
// means "not instrumented"; every handle method no-ops on nil.
type mediumMetrics struct {
	offered    *obs.Counter
	delivered  *obs.Counter
	collided   *obs.Counter
	lost       *obs.Counter
	dropped    *obs.Counter
	retries    *obs.Counter
	bytes      *obs.Counter
	rounds     *obs.Counter
	navGrants  *obs.Counter
	navTx      *obs.Counter
	airtime    *obs.Timer
	queueDepth *obs.Gauge
}

// Instrument registers the medium's traffic accounting on r (see the
// README's metric catalog for the wifi.* names). Call before traffic
// starts; a nil registry detaches the metrics.
func (m *Medium) Instrument(r *obs.Registry) {
	m.met = mediumMetrics{
		offered:    r.Counter("wifi.frames_offered"),
		delivered:  r.Counter("wifi.frames_delivered"),
		collided:   r.Counter("wifi.frames_collided"),
		lost:       r.Counter("wifi.frames_lost"),
		dropped:    r.Counter("wifi.frames_dropped"),
		retries:    r.Counter("wifi.retries"),
		bytes:      r.Counter("wifi.bytes_delivered"),
		rounds:     r.Counter("wifi.contention_rounds"),
		navGrants:  r.Counter("wifi.nav_grants"),
		navTx:      r.Counter("wifi.nav_transmissions"),
		airtime:    r.Timer("wifi.airtime_s"),
		queueDepth: r.Gauge("wifi.queue_depth"),
	}
}

// NewMedium creates a medium bound to the engine and randomness stream.
func NewMedium(eng *sim.Engine, rnd *rng.Stream) *Medium {
	m := &Medium{eng: eng, rnd: rnd}
	m.roundFn, m.kickFn = m.round, m.kick
	return m
}

// Engine returns the simulation engine driving this medium.
func (m *Medium) Engine() *sim.Engine { return m.eng }

// AddListener registers a callback for every transmission.
func (m *Medium) AddListener(l Listener) { m.listeners = append(m.listeners, l) }

// FreeAt returns the earliest time the medium is idle (physical carrier
// plus NAV).
func (m *Medium) FreeAt() float64 {
	if m.navUntil > m.busyUntil {
		return m.navUntil
	}
	return m.busyUntil
}

// Station is one 802.11 device attached to the medium.
type Station struct {
	Name string
	Addr MAC
	// Rate is the current transmit rate.
	Rate Rate
	// Adapter, when non-nil, adjusts Rate from delivery feedback
	// (Fig. 19 uses ARF-style adaptation).
	Adapter *ARF
	// SNR is the link SNR at this station's intended receiver, used by
	// the PER model. Zero disables channel loss.
	SNR func(now float64) units.DB
	// OnNAVGranted fires when this station's CTS_to_SELF wins the
	// channel; navEnd is when the reservation expires and start is when
	// the protected window begins.
	OnNAVGranted func(start, navEnd float64)
	// OnDelivered fires on every successful (non-collided, non-lost)
	// delivery of this station's frames.
	OnDelivered func(f Frame, end float64)
	// OnQueueIdle fires when the station's queue drains, letting
	// saturated traffic sources refill it.
	OnQueueIdle func()

	medium *Medium
	// queue[head:] are the waiting frames, oldest first. Delivered and
	// dropped frames advance head, and an empty queue starts over at 0.
	// An append that would grow the slice compacts it in place instead
	// once head is at least half its length: a compaction then moves no
	// more frames than have left the queue since the last one.
	queue   []Frame
	head    int
	cw      int
	retries int
	seq     uint16

	// Stats.
	SentFrames      int
	DeliveredFrames int
	DeliveredBytes  int
	CollidedFrames  int
	LostFrames      int
	DroppedFrames   int
}

// MaxQueue bounds each station's transmit queue; excess enqueues are
// dropped at the tail like a real driver ring.
const MaxQueue = 1024

// AddStation attaches a new station with the given name, address and
// initial rate.
func (m *Medium) AddStation(name string, addr MAC, rate Rate) *Station {
	st := &Station{Name: name, Addr: addr, Rate: rate, medium: m, cw: CWMin}
	m.stations = append(m.stations, st)
	return st
}

// Enqueue queues a copy of f for contention-based transmission. It
// reports whether the frame was accepted (false when the queue is full).
// The station stamps the copy's sequence number, and its transmitter
// address when f leaves it zero.
func (s *Station) Enqueue(f Frame) bool {
	if s.QueueLen() >= MaxQueue {
		s.DroppedFrames++
		s.medium.met.dropped.Inc()
		return false
	}
	s.seq++
	f.Header.Seq = s.seq
	if f.Header.Addr2 == (MAC{}) {
		f.Header.Addr2 = s.Addr
	}
	if len(s.queue) == cap(s.queue) && s.head > 0 && 2*s.head >= len(s.queue) {
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	s.queue = append(s.queue, f)
	s.medium.met.offered.Inc()
	s.medium.met.queueDepth.Set(float64(s.QueueLen()))
	s.medium.kick()
	return true
}

// QueueLen returns the number of frames waiting.
func (s *Station) QueueLen() int { return len(s.queue) - s.head }

// pop removes the head-of-queue frame, resetting the queue to its start
// once it is empty.
func (s *Station) pop() {
	s.queue[s.head] = Frame{}
	s.head++
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
}

// kick schedules a contention round after the medium goes idle for DIFS,
// if one is not already scheduled.
func (m *Medium) kick() {
	if m.roundPending {
		return
	}
	m.roundPending = true
	at := m.FreeAt()
	if now := m.eng.Now(); at < now {
		at = now
	}
	m.eng.ScheduleAt(at+DIFS, m.roundFn)
}

// round resolves one contention round.
func (m *Medium) round() {
	m.roundPending = false
	m.met.rounds.Inc()
	now := m.eng.Now()
	if m.FreeAt()+DIFS > now+1e-12 {
		// The medium became busy after this round was scheduled;
		// re-arm.
		m.kick()
		return
	}
	ready := m.ready[:0]
	stallRelease := 0.0
	for _, st := range m.stations {
		if st.QueueLen() == 0 {
			continue
		}
		if m.Impair != nil {
			if until, ok := m.Impair.StalledUntil(st, now); ok {
				// Stalled stations keep their queue but sit out this
				// round; remember the earliest release so a fully
				// stalled medium wakes up again.
				if stallRelease == 0 || until < stallRelease {
					stallRelease = until
				}
				continue
			}
		}
		ready = append(ready, st)
	}
	m.ready = ready
	if len(ready) == 0 {
		if stallRelease > 0 {
			m.eng.ScheduleAt(stallRelease+DIFS, m.roundFn)
		}
		return
	}
	// Each ready station draws a backoff; minimum wins, ties collide.
	minSlot := -1
	winners := m.winners[:0]
	for _, st := range ready {
		b := m.rnd.Intn(st.cw + 1)
		switch {
		case minSlot < 0 || b < minSlot:
			minSlot = b
			winners = winners[:0]
			winners = append(winners, st)
		case b == minSlot:
			winners = append(winners, st)
		}
	}
	m.winners = winners
	start := now + float64(minSlot)*SlotTime
	if len(winners) == 1 {
		m.deliver(winners[0], start)
	} else {
		m.collide(winners, start)
	}
	m.eng.ScheduleAt(m.busyUntil, m.kickFn)
}

// deliver transmits the head-of-queue frame of st starting at start. A
// delivered frame leaves the queue before the listeners hear of it; a
// lost one stays at the head for its retry (onFailure).
func (m *Medium) deliver(st *Station, start float64) {
	f := st.queue[st.head]
	st.SentFrames++
	rate := st.Rate
	if f.Header.Type == TypeCTSToSelf || f.Header.Type == TypeBeacon {
		rate = Rate6 // control and management at base rate
	}
	air := AirTime(f.Length(), rate)
	end := start + air
	m.busyUntil = end
	m.met.airtime.Observe(air)
	// Channel-error loss at the intended receiver.
	lost := false
	if st.SNR != nil && f.Header.Type == TypeData {
		snr := st.SNR(start)
		if m.Impair != nil {
			snr += m.Impair.SNROffset(start)
		}
		per := PERModel(snr, rate, f.Length())
		lost = m.rnd.Float64() < per
	}
	// Injected interference can destroy any frame, control included.
	if !lost && m.Impair != nil && m.Impair.FrameLost(st, start) {
		lost = true
	}
	if !lost && f.Header.Type == TypeData && f.Header.Addr1 != BroadcastMAC {
		m.busyUntil = end + AckAirTime()
	}
	if !lost {
		st.pop()
	}
	m.notify(Transmission{Station: st, Frame: f, Rate: rate, Start: start, End: end, Lost: lost})
	if lost {
		st.LostFrames++
		m.met.lost.Inc()
		st.onFailure()
	} else {
		st.DeliveredFrames++
		st.DeliveredBytes += f.Length()
		m.met.delivered.Inc()
		m.met.bytes.Add(int64(f.Length()))
		st.onSuccess()
		if f.Header.Type == TypeCTSToSelf {
			nav := end + f.NAVDuration()
			if nav > m.navUntil {
				m.navUntil = nav
				m.navOwner = st
			}
			m.met.navGrants.Inc()
			if st.OnNAVGranted != nil {
				st.OnNAVGranted(end, nav)
			}
		}
		if st.OnDelivered != nil {
			st.OnDelivered(f, end)
		}
	}
	if st.QueueLen() == 0 && st.OnQueueIdle != nil {
		st.OnQueueIdle()
	}
}

// collide burns the air for every tied winner and retries them.
func (m *Medium) collide(winners []*Station, start float64) {
	var end float64
	for _, st := range winners {
		f := st.queue[st.head]
		st.SentFrames++
		st.CollidedFrames++
		m.met.collided.Inc()
		air := AirTime(f.Length(), st.Rate)
		if e := start + air; e > end {
			end = e
		}
		m.notify(Transmission{Station: st, Frame: f, Rate: st.Rate,
			Start: start, End: start + air, Collided: true})
	}
	m.busyUntil = end
	for _, st := range winners {
		st.onFailure()
		if st.QueueLen() == 0 && st.OnQueueIdle != nil {
			st.OnQueueIdle()
		}
	}
}

func (m *Medium) notify(tx Transmission) {
	for _, l := range m.listeners {
		l(tx)
	}
}

// onSuccess resets the contention window and informs rate adaptation.
func (s *Station) onSuccess() {
	s.cw = CWMin
	s.retries = 0
	if s.Adapter != nil {
		s.Rate = s.Adapter.OnSuccess(s.Rate)
	}
}

// onFailure doubles the contention window and leaves the head-of-queue
// frame there for in-order retry, or drops it once its retries are
// exhausted. The frame is still queued while the listeners hear of its
// failure; no listener reads or fills a queue (Enqueue, QueueLen and
// OnQueueIdle run from scheduled events and delivery callbacks only).
func (s *Station) onFailure() {
	if s.Adapter != nil {
		s.Rate = s.Adapter.OnFailure(s.Rate)
	}
	s.retries++
	if s.retries > MaxRetries {
		s.pop()
		s.DroppedFrames++
		s.medium.met.dropped.Inc()
		s.retries = 0
		s.cw = CWMin
		return
	}
	s.medium.met.retries.Inc()
	if s.cw*2+1 <= CWMax {
		s.cw = s.cw*2 + 1
	} else {
		s.cw = CWMax
	}
	s.medium.kick()
}

// TransmitInNAV places a frame on air at time at, bypassing contention.
// Only the NAV owner may do this, and the frame must fit inside the
// reservation. The transmission is scheduled on the engine.
func (m *Medium) TransmitInNAV(st *Station, f Frame, rate Rate, at float64) error {
	if m.navOwner != st {
		return fmt.Errorf("wifi: %s does not own the NAV", st.Name)
	}
	air := AirTime(f.Length(), rate)
	if at+air > m.navUntil+1e-12 {
		return fmt.Errorf("wifi: frame (%.0f µs at %.6f) exceeds NAV until %.6f",
			air*1e6, at, m.navUntil)
	}
	if at < m.busyUntil-1e-12 {
		return fmt.Errorf("wifi: NAV transmission at %.6f overlaps busy medium until %.6f",
			at, m.busyUntil)
	}
	m.eng.ScheduleAt(at, func() {
		start := m.eng.Now()
		end := start + air
		if end > m.busyUntil {
			m.busyUntil = end
		}
		st.SentFrames++
		st.DeliveredFrames++
		st.DeliveredBytes += f.Length()
		m.met.navTx.Inc()
		m.met.delivered.Inc()
		m.met.bytes.Add(int64(f.Length()))
		m.met.airtime.Observe(air)
		m.notify(Transmission{Station: st, Frame: f, Rate: rate, Start: start, End: end})
		if st.OnDelivered != nil {
			st.OnDelivered(f, end)
		}
	})
	return nil
}
