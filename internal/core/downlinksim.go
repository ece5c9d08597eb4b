package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/downlink"
	"repro/internal/rng"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/wifi"
)

// This file implements the tag side of the downlink: turning the medium's
// transmission log into the RF envelope the tag's analog circuit sees,
// running the circuit sample by sample, and decoding messages with the
// microcontroller logic.

// envelopeDT is the sample period of the analog simulation.
const envelopeDT = 1.0 / wifi.EnvelopeSampleRate

// envelopeWindow synthesizes the envelope the tag receives over
// [start, start+dur) into the system's envelope row: for every logged
// transmission overlapping the window from a station the tag can hear,
// OFDM envelope samples scaled by the free-space link budget are written
// into the window (strongest signal wins on overlap). The row is the
// system's, valid until the next window.
//
// Windows must come in non-decreasing start order: once a window has read
// the log, the spans that ended at or before its start can overlap no
// later window, so they are dropped, and a window starting earlier than
// one already read would silently miss them, so it is an error instead.
// Equal starts stay legal (an inventory decodes one window once per tag).
func (s *System) envelopeWindow(start, dur float64) ([]float64, error) {
	if !s.logEnabled {
		return nil, errors.New("core: transmission log disabled; call EnableTxLog before running")
	}
	if start < s.logFloor {
		return nil, fmt.Errorf("core: downlink window at %v s starts before an earlier window at %v s; windows must come in start order", start, s.logFloor)
	}
	n := int(dur * wifi.EnvelopeSampleRate)
	s.env = slices.Grow(s.env[:0], n)[:n]
	out := s.env
	clear(out)
	carrier := wifi.ChannelFreq(6)
	for _, tx := range s.txLog {
		if tx.End <= start || tx.Start >= start+dur {
			continue
		}
		pl, ok := s.placements[tx.Station]
		if !ok {
			continue
		}
		scale := tag.ReceivedEnvelopeScale(pl.power, pl.distance, carrier)
		if scale == 0 {
			continue
		}
		lo := int((tx.Start - start) * wifi.EnvelopeSampleRate)
		hi := int((tx.End - start) * wifi.EnvelopeSampleRate)
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			v := s.envStream.Rayleigh(scale / 1.4142135623730951)
			if v > out[i] {
				out[i] = v
			}
		}
	}
	s.logFloor = start
	s.txLog = slices.DeleteFunc(s.txLog, func(tx AirSpan) bool { return tx.End <= start })
	return out, nil
}

// DownlinkWindowResult is the outcome of the tag decoding one reservation
// window.
type DownlinkWindowResult struct {
	// Message is the decoded message when Err is nil.
	Message downlink.Message
	// PreambleFound reports whether the preamble matcher fired.
	PreambleFound bool
	// Err is nil on a clean decode; downlink.ErrBadCRC when the payload
	// was corrupted.
	Err error
	// Decoder exposes the µC's power accounting for the window.
	Decoder *tag.Decoder
}

// DecodeDownlinkWindow runs the tag's full receive path over a protected
// window: circuit → comparator edges → preamble match → mid-bit sampling →
// CRC check. The envelope, comparator and edge rows are the system's,
// grown only when a window is longer than any before it. Windows must come
// in non-decreasing start order (see envelopeWindow).
func (s *System) DecodeDownlinkWindow(start, dur, bitDuration float64) (*DownlinkWindowResult, error) {
	if s.windowTap != nil {
		return s.windowTap(start, dur, bitDuration)
	}
	return s.decodeWindow(start, dur, bitDuration)
}

// decodeWindow is DecodeDownlinkWindow's body.
func (s *System) decodeWindow(start, dur, bitDuration float64) (*DownlinkWindowResult, error) {
	env, err := s.envelopeWindow(start, dur)
	if err != nil {
		return nil, err
	}
	// Injected clock drift skews the tag's idea of the bit period: its RC
	// oscillator samples mid-bit positions that creep across the real
	// slots, which is exactly how a cheap tag clock fails.
	bitDuration *= 1 + s.faults.ClockDrift(start)
	dec, err := tag.NewDecoder(bitDuration)
	if err != nil {
		return nil, err
	}
	s.obs.Counter("tag.downlink_windows").Inc()
	circuit := tag.DefaultCircuit(s.rnd.Split(fmt.Sprintf("circuit-%f", start)))
	s.comp = slices.Grow(s.comp[:0], len(env))[:len(env)]
	comp := s.comp
	for i, v := range env {
		comp[i] = circuit.Step(v, envelopeDT)
	}
	// Edge detection runs behind the µC pin's glitch filter (~1.5 µs);
	// mid-bit data sampling reads the comparator directly.
	s.edges = tag.Debounce(s.edges, comp, 6)
	edges := s.edges
	res := &DownlinkWindowResult{Decoder: dec}
	prev := false
	for i, c := range edges {
		if c == prev {
			continue
		}
		prev = c
		t := float64(i) * envelopeDT
		if !dec.OnEdge(t, c) {
			continue
		}
		res.PreambleFound = true
		payloadStart := int(dec.PayloadStartAfterMatch(t) * wifi.EnvelopeSampleRate)
		bits := dec.SampleMidBits(comp, wifi.EnvelopeSampleRate, payloadStart, downlink.PayloadBits)
		msg, perr := downlink.ParsePayload(bits)
		if perr != nil {
			res.Err = perr
			dec.FalseWakes++
			s.obs.Counter("tag.crc_failures").Inc()
			continue // keep scanning: a later match may decode
		}
		res.Message = msg
		res.Err = nil
		s.obs.Counter("tag.downlink_decodes").Inc()
		return res, nil
	}
	if !res.PreambleFound {
		res.Err = errors.New("core: no downlink preamble detected")
		s.obs.Counter("tag.preamble_misses").Inc()
	} else if res.Err == nil {
		res.Err = errors.New("core: preamble matched but payload incomplete")
	}
	return res, nil
}

// DownlinkBERTrial measures the raw downlink bit error rate at a given
// distance and bit duration without MAC framing, mirroring the Fig. 17
// methodology: nbits random presence/absence bits are transmitted
// back-to-back and the tag's circuit output is sampled mid-bit.
//
// It returns the number of bit errors. The trial is standalone — it does
// not need a System.
func DownlinkBERTrial(distance units.Meters, txPower units.DBm, bitDuration float64, nbits int, seed int64) (int, error) {
	return DownlinkBERTrialWithCircuit(distance, txPower, bitDuration, nbits, seed, nil)
}

// DownlinkBERTrialWithCircuit is DownlinkBERTrial with a hook to modify
// the receiver circuit before the run — used by the threshold ablation.
func DownlinkBERTrialWithCircuit(distance units.Meters, txPower units.DBm, bitDuration float64, nbits int, seed int64, mutate func(*tag.Circuit)) (int, error) {
	if nbits <= 0 {
		return 0, fmt.Errorf("core: nbits must be positive, got %d", nbits)
	}
	if bitDuration <= 0 {
		return 0, fmt.Errorf("core: bit duration must be positive, got %v", bitDuration)
	}
	rnd := rng.New(seed)
	circuit := tag.DefaultCircuit(rnd.Split("circuit"))
	if mutate != nil {
		mutate(circuit)
	}
	envRnd := rnd.Split("envelope")
	bitRnd := rnd.Split("bits")
	scale := tag.ReceivedEnvelopeScale(txPower, distance, wifi.ChannelFreq(6))
	samplesPerBit := int(bitDuration * wifi.EnvelopeSampleRate)
	if samplesPerBit < 4 {
		return 0, fmt.Errorf("core: bit duration %v too short for the analog simulation", bitDuration)
	}
	// Warm the circuit with a preamble-length burst so the threshold is
	// set, as it would be after the real preamble.
	for i := 0; i < 16*samplesPerBit; i++ {
		on := (i/samplesPerBit)%2 == 0
		v := 0.0
		if on {
			v = envRnd.Rayleigh(scale / 1.4142135623730951)
		}
		circuit.Step(v, envelopeDT)
	}
	errs := 0
	for b := 0; b < nbits; b++ {
		bit := bitRnd.Bool()
		var sampled bool
		for i := 0; i < samplesPerBit; i++ {
			v := 0.0
			if bit {
				v = envRnd.Rayleigh(scale / 1.4142135623730951)
			}
			out := circuit.Step(v, envelopeDT)
			if i == samplesPerBit/2 {
				sampled = out
			}
		}
		if sampled != bit {
			errs++
		}
	}
	return errs, nil
}
