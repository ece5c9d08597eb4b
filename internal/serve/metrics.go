package serve

import (
	"math"
	"sync/atomic"

	"repro/internal/obs"
)

// metrics is the server's internal counter set. The serving layer is
// concurrent and obs registries are goroutine-confined by contract, so
// these are atomics; publish() projects them into an obs registry from
// whatever single goroutine owns it (the daemon's metrics dump, a test).
type metrics struct {
	accepted         atomic.Int64
	rejectedOverload atomic.Int64
	rejectedDraining atomic.Int64
	rejectedBad      atomic.Int64
	completed        atomic.Int64
	poisoned         atomic.Int64
	abortedSessions  atomic.Int64
	bufferFull       atomic.Int64
	measurements     atomic.Int64
	bitsServed       atomic.Int64
	active           atomic.Int64
	activeHW         atomic.Int64
	queueHW          atomic.Int64
	queued           atomic.Int64 // aggregate slot-ring occupancy (pressure input)
	drainSecondsBits atomic.Uint64
	drainedClean     atomic.Int64

	// Resume accounting.
	resumed         atomic.Int64
	resumeUnknown   atomic.Int64
	parkedTotal     atomic.Int64
	replayedBits    atomic.Int64
	evictedTTL      atomic.Int64
	evictedCapacity atomic.Int64

	// Watchdog accounting.
	watchdogScans  atomic.Int64
	watchdogStalls atomic.Int64

	// Shed accounting. Shed rejections and retry hints are derived in
	// stats: every overload rejection is the shed policy's, and
	// retryErr's only callers count rejectedOverload or bufferFull.
	shedPreempted atomic.Int64
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	// Accepted counts sessions admitted by Open.
	Accepted int64
	// RejectedOverload counts Opens refused at MaxSessions.
	RejectedOverload int64
	// RejectedDraining counts Opens refused during shutdown.
	RejectedDraining int64
	// RejectedBad counts Opens refused for invalid parameters.
	RejectedBad int64
	// Completed counts sessions that flushed a final result cleanly.
	Completed int64
	// Poisoned counts sessions ended by a decode or sink error.
	Poisoned int64
	// Aborted counts sessions force-closed at the drain deadline.
	Aborted int64
	// BufferFull counts TryPush rejections on a full slot ring.
	BufferFull int64
	// Measurements counts measurements accepted into slot rings.
	Measurements int64
	// BitsServed counts decoded bits delivered to sinks.
	BitsServed int64
	// Active is the number of currently admitted sessions.
	Active int64
	// ActiveHighWater is the maximum concurrently admitted sessions.
	ActiveHighWater int64
	// QueueHighWater is the deepest any session's slot ring has been.
	QueueHighWater int64
	// DrainSeconds is the measured drain duration (0 with no clock).
	DrainSeconds float64
	// Resumed counts successful ResumeSession re-attachments.
	Resumed int64
	// ResumeUnknown counts resumes rejected for an unknown/expired token.
	ResumeUnknown int64
	// ParkedTotal counts checkpoint park events (detach or finish).
	ParkedTotal int64
	// ReplayedBits counts bits re-sent to resuming clients.
	ReplayedBits int64
	// EvictedTTL counts checkpoints evicted by SweepResume.
	EvictedTTL int64
	// EvictedCapacity counts checkpoints evicted by MaxParked pressure.
	EvictedCapacity int64
	// WatchdogScans counts watchdog sweep passes.
	WatchdogScans int64
	// WatchdogStalls counts sessions aborted with ErrStalled.
	WatchdogStalls int64
	// ShedPreempted counts sessions preempted for higher-priority opens.
	ShedPreempted int64
	// ShedRejected counts opens refused by the shed policy (every
	// overload rejection, so it equals RejectedOverload).
	ShedRejected int64
	// RetryHints counts rejections that carried a retry-after hint
	// (RejectedOverload plus BufferFull).
	RetryHints int64
}

// noteActive records the post-change active-session count.
func (m *metrics) noteActive(n int) {
	m.active.Store(int64(n))
	maxInt64(&m.activeHW, int64(n))
}

// noteQueueDepth records a slot-ring occupancy sample (high-water only).
func (m *metrics) noteQueueDepth(d int) { maxInt64(&m.queueHW, int64(d)) }

func maxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (m *metrics) setDrainSeconds(s float64) {
	m.drainSecondsBits.Store(math.Float64bits(s))
}

func (m *metrics) drainSeconds() float64 {
	return math.Float64frombits(m.drainSecondsBits.Load())
}

func (m *metrics) stats() Stats {
	overload, full := m.rejectedOverload.Load(), m.bufferFull.Load()
	return Stats{
		Accepted:         m.accepted.Load(),
		RejectedOverload: overload,
		RejectedDraining: m.rejectedDraining.Load(),
		RejectedBad:      m.rejectedBad.Load(),
		Completed:        m.completed.Load(),
		Poisoned:         m.poisoned.Load(),
		Aborted:          m.abortedSessions.Load(),
		BufferFull:       full,
		Measurements:     m.measurements.Load(),
		BitsServed:       m.bitsServed.Load(),
		Active:           m.active.Load(),
		ActiveHighWater:  m.activeHW.Load(),
		QueueHighWater:   m.queueHW.Load(),
		DrainSeconds:     m.drainSeconds(),
		Resumed:          m.resumed.Load(),
		ResumeUnknown:    m.resumeUnknown.Load(),
		ParkedTotal:      m.parkedTotal.Load(),
		ReplayedBits:     m.replayedBits.Load(),
		EvictedTTL:       m.evictedTTL.Load(),
		EvictedCapacity:  m.evictedCapacity.Load(),
		WatchdogScans:    m.watchdogScans.Load(),
		WatchdogStalls:   m.watchdogStalls.Load(),
		ShedPreempted:    m.shedPreempted.Load(),
		ShedRejected:     overload,
		RetryHints:       overload + full,
	}
}

// publish projects the counters into an obs registry. Counters add, so
// use a fresh registry per publish; the active gauge sets the high-water
// first so Gauge.Max carries it and Value carries the current count.
func (m *metrics) publish(r *obs.Registry) {
	s := m.stats()
	r.Counter("serve.sessions.accepted").Add(s.Accepted)
	r.Counter("serve.sessions.rejected_overload").Add(s.RejectedOverload)
	r.Counter("serve.sessions.rejected_draining").Add(s.RejectedDraining)
	r.Counter("serve.sessions.rejected_bad").Add(s.RejectedBad)
	r.Counter("serve.sessions.completed").Add(s.Completed)
	r.Counter("serve.sessions.poisoned").Add(s.Poisoned)
	r.Counter("serve.sessions.aborted").Add(s.Aborted)
	r.Counter("serve.push.buffer_full").Add(s.BufferFull)
	r.Counter("serve.measurements").Add(s.Measurements)
	r.Counter("serve.bits_served").Add(s.BitsServed)
	g := r.Gauge("serve.sessions.active")
	g.Set(float64(s.ActiveHighWater))
	g.Set(float64(s.Active))
	r.Gauge("serve.queue.highwater").Set(float64(s.QueueHighWater))
	r.Gauge("serve.drain.seconds").Set(s.DrainSeconds)
	r.Gauge("serve.drain.clean").Set(float64(m.drainedClean.Load()))
	r.Counter("serve.resume.resumed").Add(s.Resumed)
	r.Counter("serve.resume.unknown").Add(s.ResumeUnknown)
	r.Counter("serve.resume.parked_total").Add(s.ParkedTotal)
	r.Counter("serve.resume.replayed_bits").Add(s.ReplayedBits)
	r.Counter("serve.resume.evicted_ttl").Add(s.EvictedTTL)
	r.Counter("serve.resume.evicted_capacity").Add(s.EvictedCapacity)
	r.Counter("serve.watchdog.scans").Add(s.WatchdogScans)
	r.Counter("serve.watchdog.stalls").Add(s.WatchdogStalls)
	r.Counter("serve.shed.preempted").Add(s.ShedPreempted)
	r.Counter("serve.shed.rejected").Add(s.ShedRejected)
	r.Counter("serve.shed.retry_hints").Add(s.RetryHints)
}
