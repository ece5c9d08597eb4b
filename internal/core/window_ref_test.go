package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/downlink"
	"repro/internal/tag"
	"repro/internal/wifi"
)

// The exactness oracle for the downlink window: the envelope synthesis,
// the window decode and the glitch filter as they were when the
// transmission log kept every span of a run and each window made its own
// rows, kept verbatim (renamed with a ref prefix). refEnvelopeWindow reads
// the log it is given, which refWindows records from the system's
// creation and never prunes, instead of the system's own; the other two
// differ from the old bodies only in calling the ref versions.

func (s *System) refEnvelopeWindow(log []AirSpan, start, dur float64) ([]float64, error) {
	if !s.logEnabled {
		return nil, errors.New("core: transmission log disabled; call EnableTxLog before running")
	}
	n := int(dur * wifi.EnvelopeSampleRate)
	out := make([]float64, n)
	carrier := wifi.ChannelFreq(6)
	for _, tx := range log {
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
	return out, nil
}

// refDecodeDownlinkWindow also returns the envelope it decoded, for the
// oracle to compare.
func (s *System) refDecodeDownlinkWindow(log []AirSpan, start, dur, bitDuration float64) (*DownlinkWindowResult, []float64, error) {
	env, err := s.refEnvelopeWindow(log, start, dur)
	if err != nil {
		return nil, nil, err
	}
	// Injected clock drift skews the tag's idea of the bit period: its RC
	// oscillator samples mid-bit positions that creep across the real
	// slots, which is exactly how a cheap tag clock fails.
	bitDuration *= 1 + s.faults.ClockDrift(start)
	dec, err := tag.NewDecoder(bitDuration)
	if err != nil {
		return nil, env, err
	}
	s.obs.Counter("tag.downlink_windows").Inc()
	circuit := tag.DefaultCircuit(s.rnd.Split(fmt.Sprintf("circuit-%f", start)))
	comp := make([]bool, len(env))
	for i, v := range env {
		comp[i] = circuit.Step(v, envelopeDT)
	}
	// Edge detection runs behind the µC pin's glitch filter (~1.5 µs);
	// mid-bit data sampling reads the comparator directly.
	edges := refDebounce(comp, 6)
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
		return res, env, nil
	}
	if !res.PreambleFound {
		res.Err = errors.New("core: no downlink preamble detected")
		s.obs.Counter("tag.preamble_misses").Inc()
	} else if res.Err == nil {
		res.Err = errors.New("core: preamble matched but payload incomplete")
	}
	return res, env, nil
}

func refDebounce(samples []bool, minRun int) []bool {
	out := append([]bool(nil), samples...)
	if minRun <= 1 || len(out) == 0 {
		return out
	}
	level := out[0]
	i := 0
	for i < len(out) {
		j := i
		for j < len(out) && out[j] == out[i] {
			j++
		}
		if out[i] != level && j-i < minRun {
			// Glitch: absorb into the current level.
			for k := i; k < j; k++ {
				out[k] = level
			}
		} else {
			level = out[i]
		}
		i = j
	}
	return out
}

// Window is one downlink window a system decoded, as RecordWindows or
// RecordReferenceWindows saw it: Env is a copy of its envelope.
type Window struct {
	Start, Dur float64
	Env        []float64
	Res        *DownlinkWindowResult
	Err        error
}

// RecordWindows appends every window s decodes to out.
func RecordWindows(s *System, out *[]Window) {
	s.windowTap = func(start, dur, bitDuration float64) (*DownlinkWindowResult, error) {
		res, err := s.decodeWindow(start, dur, bitDuration)
		w := Window{Start: start, Dur: dur, Res: res, Err: err}
		if err == nil {
			w.Env = slices.Clone(s.env)
		}
		*out = append(*out, w)
		return res, err
	}
}

// RecordReferenceWindows makes s decode every window with
// refDecodeDownlinkWindow, over a log of every span from here on that is
// never pruned, and appends each to out. Call it before the first
// transmission.
func RecordReferenceWindows(s *System, out *[]Window) {
	var log []AirSpan
	s.Medium.AddListener(func(tx wifi.Transmission) {
		log = append(log, AirSpan{Station: tx.Station, Start: tx.Start, End: tx.End})
	})
	s.windowTap = func(start, dur, bitDuration float64) (*DownlinkWindowResult, error) {
		res, env, err := s.refDecodeDownlinkWindow(log, start, dur, bitDuration)
		*out = append(*out, Window{Start: start, Dur: dur, Env: env, Res: res, Err: err})
		return res, err
	}
}
