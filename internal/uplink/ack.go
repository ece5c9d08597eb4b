package uplink

import (
	"repro/internal/csi"
)

// ACK detection (§4.1): "the Wi-Fi Backscatter tag can reduce the overhead
// of the ACK packet by dropping the preamble and the address fields, and
// transmitting a single bit message". The minimal distinguishable burst is
// the bare 13-bit Barker preamble itself: the reader already correlates
// with it on every channel, so detecting an ACK costs the tag 13 bit
// periods and the reader one correlation pass — no payload, no CRC.

// AckBits returns the bit sequence a tag transmits as an ACK burst.
func AckBits() []bool {
	bits := make([]bool, len(preambleLevels))
	for i, v := range preambleLevels {
		bits[i] = v > 0
	}
	return bits
}

// rankedScore returns the score both preamble detectors threshold: the
// tenth-best of the lanes rankLanes ranked, or the worst when fewer. A
// real burst lifts many channels at once, so a raised threshold on the
// tenth-best keeps noise on a few of the 90 channels from faking a
// detection (a noise-only correlation over 13 bins has σ ≈ 0.28, so
// single channels cross 0.5 routinely and about one in a hundred 0.72).
func rankedScore(stats []channelStats) float64 {
	return stats[min(9, len(stats)-1)].score
}

// DetectAck reports whether an ACK burst starting at start is present in
// the series, along with the best correlation found. The burst is a
// preamble-only frame scored by the decoder's own bin and score stages,
// and detection thresholds its ranked lanes at the decoder's
// MinCorrelation, raised to at least 0.72.
func (d *Decoder) DetectAck(s *csi.Series, start float64) (bool, float64, error) {
	if err := checkSeries(s); err != nil {
		return false, 0, err
	}
	sd := d.newWindow(s, start, start+float64(len(preambleLevels))*d.cfg.BitDuration)
	defer sd.release()
	if sd.n < len(preambleLevels) {
		// Too few measurements to cover the burst.
		return false, 0, nil
	}
	fs := getScratch(sd.nchan(), sd.n, sd.nbits)
	defer putScratch(fs)
	sd.bin(fs.off)
	stats := sd.scoreLanes(fs)
	if err := rankLanes(stats); err != nil {
		return false, 0, err
	}
	return rankedScore(stats) >= max(0.72, d.cfg.MinCorrelation), stats[0].score, nil
}
