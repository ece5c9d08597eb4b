package wifi

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// This file provides the traffic sources used across the evaluation:
// constant-rate injection (Fig. 10/12), saturated download (the 1 GB file
// transfer behind Fig. 3), Poisson and bursty ambient traffic (Fig. 15/18),
// beacons (Fig. 16), and the diurnal office load profile.

// dataFrame builds a data frame carrying body.
func dataFrame(dst MAC, body []byte) Frame {
	return Frame{Header: Header{Type: TypeData, Addr1: dst}, Payload: body}
}

// zeroBody is a traffic source's frame body: one zeroed slice of the
// payload size, allocated once and carried by every frame the source
// emits. The frames share it, so it is read-only (see Frame.Payload).
type zeroBody []byte

// of returns the body of n bytes (a negative n counts as 0), allocating
// it only on first use or when n changes. Its capacity equals its length,
// so an append to a frame's Payload reallocates instead of writing past
// the body.
func (b *zeroBody) of(n int) []byte {
	if n < 0 {
		n = 0
	}
	if *b == nil || len(*b) != n {
		*b = make([]byte, n)
	}
	return (*b)[:n:n]
}

// CBRSource injects fixed-size data frames at a constant interval, like the
// paper's packet injection with inter-packet delays. It stops when the
// engine runs past its horizon.
type CBRSource struct {
	Station  *Station
	Dst      MAC
	Payload  int
	Interval float64 // seconds between enqueues
	Until    float64 // stop time (absolute)

	body zeroBody
}

// NewCBRSource validates and builds a constant-rate source; tune Until on
// the returned value before Start if needed.
func NewCBRSource(st *Station, dst MAC, payload int, interval float64) (*CBRSource, error) {
	c := &CBRSource{Station: st, Dst: dst, Payload: payload, Interval: interval}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *CBRSource) validate() error {
	if c.Station == nil {
		return fmt.Errorf("wifi: CBRSource needs a station")
	}
	if c.Interval <= 0 {
		return fmt.Errorf("wifi: CBRSource needs a positive interval, got %v", c.Interval)
	}
	return nil
}

// Start schedules the source on the station's medium engine. It returns an
// error instead of scheduling anything when the source is misconfigured.
func (c *CBRSource) Start() error {
	if err := c.validate(); err != nil {
		return err
	}
	eng := c.Station.medium.eng
	var tick func()
	tick = func() {
		if c.Until > 0 && eng.Now() >= c.Until {
			return
		}
		c.Station.Enqueue(dataFrame(c.Dst, c.body.of(c.Payload)))
		eng.Schedule(c.Interval, tick)
	}
	eng.Schedule(0, tick)
	return nil
}

// SaturatedSource keeps the station's queue backlogged with fixed-size data
// frames, modelling a large file download (Fig. 3's 1 GB media file).
type SaturatedSource struct {
	Station *Station
	Dst     MAC
	Payload int
	// Depth is how many frames to keep queued (default 4).
	Depth int

	body zeroBody
}

// NewSaturatedSource validates and builds a backlogged source.
func NewSaturatedSource(st *Station, dst MAC, payload int) (*SaturatedSource, error) {
	s := &SaturatedSource{Station: st, Dst: dst, Payload: payload}
	if st == nil {
		return nil, fmt.Errorf("wifi: SaturatedSource needs a station")
	}
	return s, nil
}

// Start begins the backlog.
func (s *SaturatedSource) Start() error {
	if s.Station == nil {
		return fmt.Errorf("wifi: SaturatedSource needs a station")
	}
	depth := s.Depth
	if depth <= 0 {
		depth = 4
	}
	refill := func() {
		for s.Station.QueueLen() < depth {
			s.Station.Enqueue(dataFrame(s.Dst, s.body.of(s.Payload)))
		}
	}
	s.Station.OnQueueIdle = refill
	refill()
	return nil
}

// PoissonSource injects data frames as a Poisson process with the given
// mean rate.
type PoissonSource struct {
	Station *Station
	Dst     MAC
	Payload int
	Rate    float64 // mean packets per second
	Until   float64
	Rnd     *rng.Stream

	body zeroBody
}

// NewPoissonSource validates and builds a Poisson source.
func NewPoissonSource(st *Station, dst MAC, payload int, rate float64, rnd *rng.Stream) (*PoissonSource, error) {
	p := &PoissonSource{Station: st, Dst: dst, Payload: payload, Rate: rate, Rnd: rnd}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *PoissonSource) validate() error {
	if p.Station == nil {
		return fmt.Errorf("wifi: PoissonSource needs a station")
	}
	if p.Rate <= 0 {
		return fmt.Errorf("wifi: PoissonSource needs a positive rate, got %v", p.Rate)
	}
	if p.Rnd == nil {
		return fmt.Errorf("wifi: PoissonSource needs an rng stream")
	}
	return nil
}

// Start schedules the source; it returns an error when misconfigured.
func (p *PoissonSource) Start() error {
	if err := p.validate(); err != nil {
		return err
	}
	eng := p.Station.medium.eng
	var tick func()
	tick = func() {
		if p.Until > 0 && eng.Now() >= p.Until {
			return
		}
		p.Station.Enqueue(dataFrame(p.Dst, p.body.of(p.Payload)))
		eng.Schedule(p.Rnd.Exponential(1/p.Rate), tick)
	}
	eng.Schedule(p.Rnd.Exponential(1/p.Rate), tick)
	return nil
}

// BurstySource models heavy-tailed on/off traffic (a streaming client like
// the paper's Pandora session): bursts of back-to-back packets with
// Pareto-distributed burst lengths and idle gaps.
type BurstySource struct {
	Station *Station
	Dst     MAC
	Payload int
	// MeanBurst is the mean number of packets per burst.
	MeanBurst float64
	// MeanGap is the mean idle time between bursts in seconds.
	MeanGap float64
	// InBurstInterval is the spacing of packets within a burst.
	InBurstInterval float64
	Until           float64
	Rnd             *rng.Stream

	body zeroBody
}

// NewBurstySource validates and builds a heavy-tailed on/off source.
func NewBurstySource(st *Station, dst MAC, payload int, meanBurst, meanGap, inBurst float64, rnd *rng.Stream) (*BurstySource, error) {
	b := &BurstySource{
		Station: st, Dst: dst, Payload: payload,
		MeanBurst: meanBurst, MeanGap: meanGap, InBurstInterval: inBurst, Rnd: rnd,
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *BurstySource) validate() error {
	if b.Station == nil {
		return fmt.Errorf("wifi: BurstySource needs a station")
	}
	if b.MeanBurst <= 0 || b.MeanGap <= 0 || b.InBurstInterval <= 0 {
		return fmt.Errorf("wifi: BurstySource needs positive parameters (burst %v, gap %v, spacing %v)",
			b.MeanBurst, b.MeanGap, b.InBurstInterval)
	}
	if b.Rnd == nil {
		return fmt.Errorf("wifi: BurstySource needs an rng stream")
	}
	return nil
}

// Start schedules the source; it returns an error when misconfigured.
func (b *BurstySource) Start() error {
	if err := b.validate(); err != nil {
		return err
	}
	eng := b.Station.medium.eng
	const alpha = 1.5 // Pareto shape for burst sizes
	enqueue := func() { b.Station.Enqueue(dataFrame(b.Dst, b.body.of(b.Payload))) }
	var burst func()
	burst = func() {
		if b.Until > 0 && eng.Now() >= b.Until {
			return
		}
		// Pareto with mean MeanBurst: mean = alpha*xm/(alpha-1).
		xm := b.MeanBurst * (alpha - 1) / alpha
		n := int(math.Ceil(b.Rnd.Pareto(xm, alpha)))
		for i := 0; i < n; i++ {
			delay := float64(i) * b.InBurstInterval
			eng.Schedule(delay, enqueue)
		}
		gap := b.Rnd.Exponential(b.MeanGap)
		eng.Schedule(float64(n)*b.InBurstInterval+gap, burst)
	}
	eng.Schedule(0, burst)
	return nil
}

// beaconBytes is a typical beacon body with its information elements.
const beaconBytes = 80

// BeaconSource emits AP beacons at a fixed interval (Fig. 16 sweeps this
// from ~10 to 70 beacons/s).
type BeaconSource struct {
	Station  *Station
	Interval float64
	Until    float64

	body zeroBody
}

// NewBeaconSource validates and builds a beacon source.
func NewBeaconSource(st *Station, interval float64) (*BeaconSource, error) {
	b := &BeaconSource{Station: st, Interval: interval}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *BeaconSource) validate() error {
	if b.Station == nil {
		return fmt.Errorf("wifi: BeaconSource needs a station")
	}
	if b.Interval <= 0 {
		return fmt.Errorf("wifi: BeaconSource needs a positive interval, got %v", b.Interval)
	}
	return nil
}

// Start schedules beaconing; it returns an error when misconfigured.
func (b *BeaconSource) Start() error {
	if err := b.validate(); err != nil {
		return err
	}
	eng := b.Station.medium.eng
	var tick func()
	tick = func() {
		if b.Until > 0 && eng.Now() >= b.Until {
			return
		}
		b.Station.Enqueue(Frame{
			Header:  Header{Type: TypeBeacon, Addr1: BroadcastMAC},
			Payload: b.body.of(beaconBytes),
		})
		eng.Schedule(b.Interval, tick)
	}
	eng.Schedule(0, tick)
	return nil
}

// OfficeLoad returns the diurnal office network load in packets/second at
// the given time of day (hours, 0–24), reproducing the shape of Fig. 15:
// load ramps through the morning, peaks in the early afternoon around a
// thousand packets per second, and falls off through the evening.
func OfficeLoad(hour float64) float64 {
	hour = math.Mod(hour, 24)
	// A smooth day curve: low at night, peak ~2 PM.
	base := 80.0
	peak := 1020.0
	x := (hour - 14) / 4.5
	day := math.Exp(-x * x)
	return base + (peak-base)*day
}
