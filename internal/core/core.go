// Package core is the public facade of the Wi-Fi Backscatter library. It
// wires the substrates — the discrete-event engine, the CSMA/CA medium,
// the RF channel model, the measurement card, the tag, and the uplink /
// downlink codecs — into a System on which transactions and the paper's
// experiments run.
//
// A System hosts three actors (§2):
//
//   - the helper (any Wi-Fi transmitter, typically an AP), whose packets
//     illuminate the tag;
//   - the reader (a commodity Wi-Fi device), which measures CSI/RSSI on
//     received packets to decode the tag and transmits packet-presence
//     patterns to reach it;
//   - the battery-free tag, which modulates its antenna impedance on the
//     uplink and detects packet energy on the downlink.
package core

import (
	"fmt"
	"slices"

	"repro/internal/csi"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// Config describes a Wi-Fi Backscatter deployment. Zero-valued fields take
// the defaults from the paper's testbed.
type Config struct {
	// Seed drives all randomness; equal seeds replay identically.
	Seed int64
	// TagReaderDistance separates tag and reader (the swept variable in
	// most uplink experiments).
	TagReaderDistance units.Meters
	// HelperTagDistance separates helper and tag (3 m in the paper's
	// experiments).
	HelperTagDistance units.Meters
	// HelperReaderDistance separates helper and reader directly; zero
	// derives it from HelperTagDistance.
	HelperReaderDistance units.Meters
	// HelperWalls counts walls between the helper and the tag/reader.
	HelperWalls int
	// Channel overrides the RF channel model.
	Channel *radio.ChannelConfig
	// Card overrides the measurement model.
	Card *csi.Model
	// ReaderPower is the reader's transmit power (§8.1 uses +16 dBm).
	ReaderPower units.DBm
	// HelperPower is the helper's transmit power.
	HelperPower units.DBm
	// MeasureAllStations lets the reader harvest channel measurements
	// from every station's packets, not only the helper's (§5:
	// "leveraging traffic from all Wi-Fi devices").
	MeasureAllStations bool
	// Faults, when non-nil and non-empty, injects the scheduled
	// impairments into the medium, the measurement path, both codecs, and
	// the tag decoder. The injector's randomness derives from Seed (via
	// rng.TrialSeed with a fixed salt), never from the streams the clean
	// pipeline consumes, so a schedule whose windows all have intensity
	// zero replays the clean run bit-for-bit.
	Faults *faults.Schedule
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.TagReaderDistance == 0 {
		c.TagReaderDistance = units.Centimeters(5)
	}
	if c.HelperTagDistance == 0 {
		c.HelperTagDistance = units.Meters(3)
	}
	if c.ReaderPower == 0 {
		c.ReaderPower = units.DBm(16)
	}
	if c.HelperPower == 0 {
		c.HelperPower = units.DBm(16)
	}
	return c
}

// placement records a station's RF relationship to the tag.
type placement struct {
	power    units.DBm
	distance units.Meters
}

// System is an assembled Wi-Fi Backscatter deployment.
type System struct {
	cfg Config

	// Eng is the discrete-event engine; advance it with Run.
	Eng *sim.Engine
	// Medium is the shared 802.11 channel.
	Medium *wifi.Medium
	// Helper is the illuminating station (AP).
	Helper *wifi.Station
	// Reader is the decoding/querying station.
	Reader *wifi.Station
	// Channel is the composite backscatter RF channel; tag 0 is created
	// at construction and more tags can join via AddTag.
	Channel *radio.MultiChannel
	// Card is the reader's measurement front end.
	Card *csi.Card

	obs        *obs.Registry
	rnd        *rng.Stream
	envStream  *rng.Stream
	faults     *faults.Injector
	mods       []*tag.Modulator // per-tag active transmission (nil = idle)
	states     []bool           // scratch buffer for Observe
	h          [][]complex128   // Observe's output, reused across packets
	series     csi.Series
	placements map[*wifi.Station]placement
	txLog      []AirSpan
	logEnabled bool
	onMeasure  []func(csi.Measurement)

	// streams, subscribed by StreamTo and sorted by frame start, replace
	// the series: from the first subscription on (noSeries), each report
	// is measured into report, which the next packet overwrites, and
	// pushed to every open stream before the hooks see it.
	streams  []*uplink.StreamDecoder
	noSeries bool
	report   csi.Measurement
}

// NewSystem assembles a deployment from the config.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	rnd := rng.New(cfg.Seed)
	chCfg := radio.DefaultChannelConfig()
	if cfg.Channel != nil {
		chCfg = *cfg.Channel
	}
	cardModel := csi.DefaultModel()
	if cfg.Card != nil {
		cardModel = *cfg.Card
	}
	geo := radio.Geometry{
		HelperToTag:    cfg.HelperTagDistance,
		TagToReader:    cfg.TagReaderDistance,
		HelperToReader: cfg.HelperReaderDistance,
		HelperWalls:    cfg.HelperWalls,
	}
	channel, err := radio.NewMultiChannel(chCfg, geo, rnd.Split("channel"))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, err := channel.AddTag(cfg.TagReaderDistance); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	eng := sim.NewEngine()
	medium := wifi.NewMedium(eng, rnd.Split("medium"))
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	medium.Instrument(reg)
	s := &System{
		cfg:        cfg,
		Eng:        eng,
		Medium:     medium,
		obs:        reg,
		Channel:    channel,
		Card:       csi.NewCard(cardModel, rnd.Split("card")),
		rnd:        rnd,
		envStream:  rnd.Split("envelope"),
		placements: make(map[*wifi.Station]placement),
		mods:       make([]*tag.Modulator, 1),
		states:     make([]bool, 1),
		h:          make([][]complex128, channel.Antennas()),
	}
	// Observe fills h in place, and a skipped capture reads its shape
	// before any Observe has run (see StreamTo).
	for a := range s.h {
		s.h[a] = make([]complex128, channel.Subchannels())
	}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		// The injector gets its own stream derived from the seed by a
		// bijective mix, NOT by splitting rnd: a Split here would advance
		// rnd and perturb every stream created after it, breaking the
		// clean-run equivalence of zero-intensity schedules.
		inj, err := faults.NewInjector(cfg.Faults, rng.New(rng.TrialSeed(cfg.Seed, faultStreamSalt)))
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		inj.Instrument(reg)
		s.faults = inj
		medium.Impair = inj
	}
	s.Helper = medium.AddStation("helper", wifi.MAC{0x02, 0, 0, 0, 0, 1}, wifi.Rate54)
	s.Reader = medium.AddStation("reader", wifi.MAC{0x02, 0, 0, 0, 0, 2}, wifi.Rate54)
	s.placements[s.Helper] = placement{power: cfg.HelperPower, distance: cfg.HelperTagDistance}
	s.placements[s.Reader] = placement{power: cfg.ReaderPower, distance: cfg.TagReaderDistance}

	// The reader in monitor mode: every decodable packet yields a
	// channel measurement stamped with its reception time (§3.2).
	medium.AddListener(func(tx wifi.Transmission) {
		if s.logEnabled {
			s.txLog = append(s.txLog, AirSpan{Station: tx.Station, Start: tx.Start, End: tx.End})
		}
		if tx.Collided {
			return
		}
		if tx.Station == s.Reader {
			return // the reader cannot measure its own transmissions
		}
		if !s.cfg.MeasureAllStations && tx.Station != s.Helper {
			return
		}
		// CSI is estimated from the PLCP training symbols at the start
		// of reception, so both the channel snapshot and the
		// measurement timestamp anchor there.
		at := tx.Start + 10e-6
		var m csi.Measurement
		if s.skips(at) {
			// Nobody reads this report: make its draws and side effects
			// (the channel's innovations, the fade tally, the card's
			// noise) without computing the values.
			s.Channel.Advance(at)
			s.faults.AttenuateChannel(at, nil)
			s.Card.SkipInto(&s.report, at, s.h)
			m = s.report
		} else {
			m = s.measure(at)
		}
		if s.faults.CorruptMeasurement(at, &m) {
			return // the flaky capture path dropped this packet's report
		}
		if s.noSeries {
			s.push(m)
		} else {
			s.series.Append(m)
		}
		for _, fn := range s.onMeasure {
			fn(m)
		}
	})
	return s, nil
}

// measure evaluates the channel at time at and returns the card's report:
// a fresh one for the series, or the reused report when streams replace
// the series.
func (s *System) measure(at float64) csi.Measurement {
	for i, mod := range s.mods {
		s.states[i] = mod != nil && mod.StateAt(at)
	}
	h, herr := s.Channel.Observe(at, s.states, s.h)
	if herr != nil {
		// Programmer-error assert: s.states and the channel's tag set are
		// resized together in AddTag, so a mismatch here is a bug in this
		// file, not reachable from user input.
		panic(herr)
	}
	// h is s.h from here on: the fade and the card consume it before the
	// next packet overwrites it, and the card's report has rows of its
	// own. Fades attenuate the observed channel before the card measures
	// it; measurement corruption runs after, so the card's own noise
	// stream stays aligned with the clean run.
	s.h = h
	s.faults.AttenuateChannel(at, h)
	if !s.noSeries {
		return s.Card.Measure(at, h)
	}
	s.Card.MeasureInto(&s.report, at, h)
	return s.report
}

// skips reports whether the capture at time at goes unread: streams are
// the system's only consumers and at falls outside the frame [Start, End)
// of every open one, where Push looks at nothing but the timestamp and the
// shape.
func (s *System) skips(at float64) bool {
	if !s.noSeries || len(s.onMeasure) > 0 {
		return false
	}
	for _, sd := range s.streams {
		if sd.Start() > at {
			break // sorted by start: no later frame has begun
		}
		if at < sd.End() && !sd.Closed() {
			return false
		}
	}
	return true
}

// push feeds m to every open stream, in start order, and drops the streams
// that have closed. A failed push poisons its stream, and Flush returns
// the error.
func (s *System) push(m csi.Measurement) {
	open := s.streams[:0]
	for _, sd := range s.streams {
		if sd.Closed() {
			continue
		}
		_, _ = sd.Push(m)
		if !sd.Closed() {
			open = append(open, sd)
		}
	}
	clear(s.streams[len(open):])
	s.streams = open
}

// StreamTo subscribes sd to every capture from here on, in order, in place
// of the series: from the first subscription the system keeps no series,
// measures each report into one buffer the next packet overwrites, and
// pushes it to every open stream. A stream's first push past its frame end
// closes the frame (unless it decodes at Flush), and the stream leaves the
// system once it is flushed or has failed. Subscribe a stream, opened on
// an UplinkDecoder, before its frame starts: before Run, or during it
// from an event, as a transaction does for its response. Take the Result
// from its Flush; DecodeStream does all three for one frame.
//
// While streams are the only consumers (no OnMeasurement hook), a capture
// outside every open stream's frame is not evaluated: the channel, the
// card and the fault injector make the draws and keep the tallies the
// evaluated capture would, so the run stays draw-for-draw the same, and
// the streams still count the push and close their frames on it. A hook
// makes every capture evaluated again.
func (s *System) StreamTo(sd *uplink.StreamDecoder) {
	s.keepNoSeries()
	i := len(s.streams)
	for i > 0 && s.streams[i-1].Start() > sd.Start() {
		i--
	}
	s.streams = slices.Insert(s.streams, i, sd)
}

// keepNoSeries stops the series for good and drops what it held.
func (s *System) keepNoSeries() {
	s.noSeries = true
	s.series = csi.Series{}
}

// OnMeasurement registers a hook invoked for every measurement the reader
// captures, in capture order, after it lands in the system's series or
// streams. Hooks are for observers, such as a recorder or a test's
// series-keeping twin; decoding during the run goes through StreamTo.
// Hooks run inside the measurement listener, so they must not mutate the
// system, and must treat the measurement's slices as read-only. The
// slices are valid only during the call: on a system that keeps a series
// they belong to it, but on one that streams (StreamTo) they are the one
// reused report the next packet overwrites, so a hook that keeps a
// measurement keeps its Clone. Registering a hook turns off StreamTo's
// skipping of out-of-frame captures: the hook sees every capture
// evaluated.
func (s *System) OnMeasurement(fn func(csi.Measurement)) {
	s.onMeasure = append(s.onMeasure, fn)
}

// faultStreamSalt derives the fault injector's rng root from the system
// seed (an arbitrary odd constant; see NewSystem).
const faultStreamSalt = 0x66_6C_74_73 // "flts"

// FaultInjector returns the system's fault injector, or nil when the
// config carried no fault schedule. The injector's Tally attributes
// injected events to run phases.
func (s *System) FaultInjector() *faults.Injector { return s.faults }

// Config returns the (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// Metrics returns the system's observability registry. Every substrate the
// system assembles (engine, medium, decoders, encoders) registers its
// counters here; snapshot it after a run for a deterministic account of the
// pipeline. The registry is confined to the system's goroutine.
func (s *System) Metrics() *obs.Registry { return s.obs }

// AddStation places an extra Wi-Fi station at the given distance from the
// tag, e.g. ambient clients or an interfering transmitter.
func (s *System) AddStation(name string, power units.DBm, distToTag units.Meters) *wifi.Station {
	addr := wifi.MAC{0x02, 0, 0, 0, 1, byte(len(s.placements))}
	st := s.Medium.AddStation(name, addr, wifi.Rate54)
	s.placements[st] = placement{power: power, distance: distToTag}
	return st
}

// AirSpan is one transmission's time on air, as the transmission log
// records it: all the tag's envelope (EnvelopeWindow) needs of a frame is
// who sent it and when. Collided and lost frames are logged too; their
// energy still reaches the tag.
type AirSpan struct {
	Station    *wifi.Station
	Start, End float64
}

// EnableTxLog starts recording every transmission's air span, which the
// tag-side downlink simulation consumes.
func (s *System) EnableTxLog() { s.logEnabled = true }

// TxLog returns the recorded air spans in time order (EnableTxLog must
// have been called before running). A caller that needs the frames
// themselves registers its own Medium.AddListener.
func (s *System) TxLog() []AirSpan { return s.txLog }

// Series returns the measurement series collected so far: empty on a
// system that streams (StreamTo, RunQuery).
func (s *System) Series() *csi.Series { return &s.series }

// AddTag places another tag at the given distance from the reader and
// returns its index (tag 0 always exists). Tags added here share the
// helper geometry.
func (s *System) AddTag(tagReaderDistance units.Meters) (int, error) {
	idx, err := s.Channel.AddTag(tagReaderDistance)
	if err != nil {
		return 0, err
	}
	s.mods = append(s.mods, nil)
	s.states = append(s.states, false)
	return idx, nil
}

// ModulationDepth returns tag 0's backscatter-to-direct amplitude ratio.
func (s *System) ModulationDepth() float64 { return s.Channel.ModulationDepth(0) }

// TransmitUplink arms tag 0 to transmit the given on-air bits starting
// at time start with the given bit rate (bits/second). It replaces any
// previous transmission.
func (s *System) TransmitUplink(bits []bool, start, bitRate float64) (*tag.Modulator, error) {
	return s.TransmitUplinkFrom(0, bits, start, bitRate)
}

// TransmitUplinkFrom arms the tag with the given index.
func (s *System) TransmitUplinkFrom(tagIdx int, bits []bool, start, bitRate float64) (*tag.Modulator, error) {
	if tagIdx < 0 || tagIdx >= len(s.mods) {
		return nil, fmt.Errorf("core: tag %d does not exist (%d tags)", tagIdx, len(s.mods))
	}
	if bitRate <= 0 {
		return nil, fmt.Errorf("core: bit rate must be positive, got %v", bitRate)
	}
	mod, err := tag.NewModulator(bits, start, 1/bitRate)
	if err != nil {
		return nil, err
	}
	s.mods[tagIdx] = mod
	return mod, nil
}

// UplinkDecoder builds the paper's decoder for the given tag bit rate.
func (s *System) UplinkDecoder(bitRate float64) (*uplink.Decoder, error) {
	if bitRate <= 0 {
		return nil, fmt.Errorf("core: bit rate must be positive, got %v", bitRate)
	}
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(1 / bitRate))
	if err != nil {
		return nil, err
	}
	dec.Instrument(s.obs)
	if s.faults != nil {
		dec.Impair = s.faults
	}
	return dec, nil
}

// Run advances the simulation to absolute time t.
func (s *System) Run(until float64) { s.Eng.Run(until) }
