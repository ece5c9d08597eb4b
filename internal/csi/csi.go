// Package csi models what a commodity Wi-Fi card actually reports about
// the channel: per-sub-channel CSI amplitudes (Intel Wi-Fi Link 5300 with
// the CSI Tool: 30 sub-channels × 3 antennas) and coarse per-antenna RSSI.
//
// The model injects the measurement artifacts the paper's decoding
// algorithm is explicitly designed around (§3.2–3.3):
//
//   - per-packet common-mode gain error (AGC), which no amount of
//     sub-channel combining can average away;
//   - independent per-sub-channel estimation noise, which maximum-ratio
//     combining does suppress;
//   - occasional spurious jumps ("the Intel cards ... report spurious
//     changes in the CSI once every so often"), countered by hysteresis;
//   - one systematically weak antenna ("one of the antennas on our Intel
//     device almost always reported significantly low CSI values");
//   - RSSI's coarse quantization and single-value-per-band blindness, the
//     reason CSI outranges RSSI.
package csi

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/rng"
)

// Model holds the card's measurement characteristics. Use DefaultModel for
// parameters calibrated to the paper's operating points.
type Model struct {
	// AGCNoise is the standard deviation of the per-packet common-mode
	// relative amplitude error. It applies equally to every sub-channel
	// and antenna of a packet.
	AGCNoise float64
	// SubchannelNoise is the standard deviation of the independent
	// per-sub-channel relative amplitude error.
	SubchannelNoise float64
	// SpuriousProb is the per-packet, per-antenna probability of a
	// spurious CSI jump.
	SpuriousProb float64
	// SpuriousScale is the relative magnitude of a spurious jump.
	SpuriousScale float64
	// QuantStep is the CSI amplitude quantization step in CSI units.
	QuantStep float64
	// WeakAntenna is the index of the systematically weak antenna, or -1
	// for none.
	WeakAntenna int
	// WeakAntennaGain is the amplitude factor applied to the weak
	// antenna.
	WeakAntennaGain float64
	// RSSINoiseDB is the standard deviation of per-antenna RSSI noise in
	// dB (before quantization).
	RSSINoiseDB float64
	// RSSIQuantDB is the RSSI quantization step in dB (1 dB on most
	// chipsets).
	RSSIQuantDB float64
}

// DefaultModel returns Intel 5300-like measurement characteristics.
func DefaultModel() Model {
	return Model{
		AGCNoise:        0.008,
		SubchannelNoise: 0.007,
		SpuriousProb:    0.005,
		SpuriousScale:   0.3,
		QuantStep:       0.02,
		WeakAntenna:     2,
		WeakAntennaGain: 0.25,
		RSSINoiseDB:     0.15,
		RSSIQuantDB:     0.25,
	}
}

// Measurement is one packet's channel report.
type Measurement struct {
	// Timestamp is the reception-complete time in seconds (the
	// per-packet timestamp the decoder bins bits with).
	Timestamp float64
	// CSI amplitude per [antenna][sub-channel], in CSI units.
	CSI [][]float64
	// RSSI per antenna in dB (card units).
	RSSI []float64
}

// Card is a measuring instance bound to a randomness stream.
type Card struct {
	model Model
	rnd   *rng.Stream
}

// NewCard builds a Card. The stream must not be shared with other
// consumers.
func NewCard(model Model, rnd *rng.Stream) *Card {
	return &Card{model: model, rnd: rnd}
}

// Model returns the card's measurement characteristics.
func (c *Card) Model() Model { return c.model }

// Measure converts a true complex channel (indexed [antenna][sub-channel],
// in CSI units) into the card's noisy report for a packet received at time
// t.
func (c *Card) Measure(t float64, h [][]complex128) Measurement {
	m := Measurement{
		Timestamp: t,
		CSI:       make([][]float64, len(h)),
		RSSI:      make([]float64, len(h)),
	}
	agc := 1 + c.rnd.Gaussian(0, c.model.AGCNoise)
	for a, row := range h {
		gain := agc
		if a == c.model.WeakAntenna && c.model.WeakAntennaGain > 0 {
			gain *= c.model.WeakAntennaGain
		}
		if c.model.SpuriousProb > 0 && c.rnd.Float64() < c.model.SpuriousProb {
			if c.rnd.Bool() {
				gain *= 1 + c.model.SpuriousScale
			} else {
				gain *= 1 - c.model.SpuriousScale
			}
		}
		csiRow := make([]float64, len(row))
		var power float64
		for k, hk := range row {
			amp := cmplx.Abs(hk) * gain * (1 + c.rnd.Gaussian(0, c.model.SubchannelNoise))
			if amp < 0 {
				amp = 0
			}
			power += amp * amp
			csiRow[k] = quantize(amp, c.model.QuantStep)
		}
		m.CSI[a] = csiRow
		rssi := powerDB(power) + c.rnd.Gaussian(0, c.model.RSSINoiseDB)
		m.RSSI[a] = quantize(rssi, c.model.RSSIQuantDB)
	}
	return m
}

// quantize rounds x to the nearest multiple of step; step <= 0 disables
// quantization.
func quantize(x, step float64) float64 {
	if step <= 0 {
		return x
	}
	return math.Round(x/step) * step
}

// powerDB converts linear power to dB, flooring silent inputs.
func powerDB(p float64) float64 {
	if p <= 0 {
		return -100
	}
	return 10 * math.Log10(p)
}

// Series is a time series of measurements with helpers for the decoder's
// per-sub-channel views.
type Series struct {
	Measurements []Measurement
}

// Append adds a measurement.
//
//wblint:ignore SH001 Series is the materialized-trace container by design; live paths bound it with TrimBefore and batch paths are bounded by the run length
func (s *Series) Append(m Measurement) { s.Measurements = append(s.Measurements, m) }

// TrimBefore drops every measurement whose timestamp is below t, sliding
// the survivors to the front of the existing backing array so the storage
// is reused rather than reallocated. Measurements are assumed to be in
// arrival (non-decreasing timestamp) order, as Append produces them.
//
// This is the live reader's retention knob: a session that decodes online
// (see internal/reader.LiveSession) keeps only the recent window it may
// still need, so a long-running capture stays bounded instead of growing
// with trace length.
func (s *Series) TrimBefore(t float64) {
	drop := 0
	for drop < len(s.Measurements) && s.Measurements[drop].Timestamp < t {
		drop++
	}
	if drop == 0 {
		return
	}
	n := copy(s.Measurements, s.Measurements[drop:])
	// Zero the vacated tail so the dropped measurements' CSI/RSSI slices
	// can be collected while the backing array lives on.
	for i := n; i < len(s.Measurements); i++ {
		s.Measurements[i] = Measurement{}
	}
	s.Measurements = s.Measurements[:n]
}

// Len returns the number of measurements.
func (s *Series) Len() int { return len(s.Measurements) }

// Antennas returns the antenna count of the series, or 0 when empty.
func (s *Series) Antennas() int {
	if len(s.Measurements) == 0 {
		return 0
	}
	return len(s.Measurements[0].CSI)
}

// Subchannels returns the sub-channel count, or 0 when empty.
func (s *Series) Subchannels() int {
	if len(s.Measurements) == 0 || len(s.Measurements[0].CSI) == 0 {
		return 0
	}
	return len(s.Measurements[0].CSI[0])
}

// CheckShape verifies every measurement carries the same antenna and
// sub-channel counts as the first (with one RSSI entry per antenna), so
// the per-channel extractors cannot index out of range on a malformed
// series — e.g. one assembled from a truncated capture.
func (s *Series) CheckShape() error {
	ants, subs := s.Antennas(), s.Subchannels()
	for i, m := range s.Measurements {
		if len(m.CSI) != ants || len(m.RSSI) != ants {
			return fmt.Errorf("csi: measurement %d has %d CSI rows and %d RSSI entries, want %d of each",
				i, len(m.CSI), len(m.RSSI), ants)
		}
		for a, row := range m.CSI {
			if len(row) != subs {
				return fmt.Errorf("csi: measurement %d antenna %d has %d sub-channels, want %d",
					i, a, len(row), subs)
			}
		}
	}
	return nil
}

// Timestamps returns the measurement timestamps.
func (s *Series) Timestamps() []float64 {
	out := make([]float64, len(s.Measurements))
	for i, m := range s.Measurements {
		out[i] = m.Timestamp
	}
	return out
}

// CSIChannel extracts the amplitude series of one (antenna, sub-channel)
// pair. It returns an error when the indices are out of range.
func (s *Series) CSIChannel(antenna, subchannel int) ([]float64, error) {
	if err := s.ValidateCSIChannel(antenna, subchannel); err != nil {
		return nil, err
	}
	out := make([]float64, len(s.Measurements))
	for i, m := range s.Measurements {
		out[i] = m.CSI[antenna][subchannel]
	}
	return out, nil
}

// ValidateCSIChannel reports whether (antenna, subchannel) indexes a
// channel of the series, with the same error CSIChannel returns. The
// decoder's single-channel entry points use it to reject a bad channel
// before streaming any measurements.
func (s *Series) ValidateCSIChannel(antenna, subchannel int) error {
	if antenna < 0 || antenna >= s.Antennas() || subchannel < 0 || subchannel >= s.Subchannels() {
		return fmt.Errorf("csi: channel (%d, %d) out of range (%d antennas, %d sub-channels)",
			antenna, subchannel, s.Antennas(), s.Subchannels())
	}
	return nil
}

// RSSIChannel extracts the RSSI series of one antenna.
func (s *Series) RSSIChannel(antenna int) ([]float64, error) {
	if antenna < 0 || antenna >= s.Antennas() {
		return nil, fmt.Errorf("csi: RSSI antenna %d out of range (%d antennas)", antenna, s.Antennas())
	}
	out := make([]float64, len(s.Measurements))
	for i, m := range s.Measurements {
		out[i] = m.RSSI[antenna]
	}
	return out, nil
}
