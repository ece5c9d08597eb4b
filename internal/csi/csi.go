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
// t. The report's RSSI and CSI rows share one backing array, each cut with
// its capacity at its own end, so appending to one reallocates instead of
// writing into its neighbour.
func (c *Card) Measure(t float64, h [][]complex128) Measurement {
	var m Measurement
	c.MeasureInto(&m, t, h)
	return m
}

// MeasureInto is Measure writing into m: when m already has h's shape
// (one RSSI entry and one CSI row of the right length per antenna) the
// report is overwritten in place and nothing is allocated; otherwise m
// gets a fresh one-slab report. It makes the same draws in the same order
// as Measure, so a reused report carries the same values. Only a caller
// that keeps no earlier report may reuse one.
func (c *Card) MeasureInto(m *Measurement, t float64, h [][]complex128) {
	m.shape(h)
	m.Timestamp = t
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
		csiRow := m.CSI[a]
		var power float64
		for k, hk := range row {
			amp := cmplx.Abs(hk) * gain * (1 + c.rnd.Gaussian(0, c.model.SubchannelNoise))
			if amp < 0 {
				amp = 0
			}
			power += amp * amp
			csiRow[k] = quantize(amp, c.model.QuantStep)
		}
		rssi := powerDB(power) + c.rnd.Gaussian(0, c.model.RSSINoiseDB)
		m.RSSI[a] = quantize(rssi, c.model.RSSIQuantDB)
	}
}

// SkipInto stands in for MeasureInto on a packet whose report nobody
// reads: it shapes m for h as MeasureInto does, stamps t, and makes the
// same draws in the same order (AGC, each antenna's spurious test and
// per-sub-channel noise, then its RSSI noise), so the card's stream stays
// where MeasureInto would leave it. Only len(h) and its row lengths are
// read, and m's values are left stale; the amplitudes, quantization and
// RSSI are never computed.
//
//wblint:hotpath-root
func (c *Card) SkipInto(m *Measurement, t float64, h [][]complex128) {
	m.shape(h)
	m.Timestamp = t
	c.rnd.Gaussian(0, c.model.AGCNoise)
	for _, row := range h {
		if c.model.SpuriousProb > 0 && c.rnd.Float64() < c.model.SpuriousProb {
			c.rnd.Bool()
		}
		for range row {
			c.rnd.Gaussian(0, c.model.SubchannelNoise)
		}
		c.rnd.Gaussian(0, c.model.RSSINoiseDB)
	}
}

// shape gives m a one-slab report of h's shape unless it already has one.
func (m *Measurement) shape(h [][]complex128) {
	if m.hasShape(h) {
		return
	}
	n := len(h)
	for _, row := range h {
		n += len(row)
	}
	slab := make([]float64, n)
	m.CSI = make([][]float64, len(h))
	m.RSSI = slab[:len(h):len(h)]
	slab = slab[len(h):]
	for a, row := range h {
		m.CSI[a] = slab[:len(row):len(row)]
		slab = slab[len(row):]
	}
}

// hasShape reports whether m can hold the report of channel h.
func (m *Measurement) hasShape(h [][]complex128) bool {
	if m.CSI == nil || len(m.CSI) != len(h) || len(m.RSSI) != len(h) {
		return false
	}
	for a, row := range h {
		if len(m.CSI[a]) != len(row) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of m in a fresh report's one-slab layout,
// for a caller that keeps a report it does not own (a capture's reused
// report, a parser's reused row).
func (m Measurement) Clone() Measurement {
	n := len(m.RSSI)
	for _, row := range m.CSI {
		n += len(row)
	}
	slab := append(make([]float64, 0, n), m.RSSI...)
	c := Measurement{Timestamp: m.Timestamp, CSI: make([][]float64, len(m.CSI))}
	c.RSSI = slab[:len(slab):len(slab)]
	for a, row := range m.CSI {
		lo := len(slab)
		slab = append(slab, row...)
		c.CSI[a] = slab[lo:len(slab):len(slab)]
	}
	return c
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
//wblint:ignore SH001 Series is the materialized-trace container by design, bounded by the run or trace it holds; online decoding streams instead (core.System.StreamTo keeps no series)
func (s *Series) Append(m Measurement) { s.Measurements = append(s.Measurements, m) }

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
	if antenna < 0 || antenna >= s.Antennas() || subchannel < 0 || subchannel >= s.Subchannels() {
		return nil, fmt.Errorf("csi: channel (%d, %d) out of range (%d antennas, %d sub-channels)",
			antenna, subchannel, s.Antennas(), s.Subchannels())
	}
	out := make([]float64, len(s.Measurements))
	for i, m := range s.Measurements {
		out[i] = m.CSI[antenna][subchannel]
	}
	return out, nil
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
