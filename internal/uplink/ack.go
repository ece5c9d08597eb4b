package uplink

import (
	"fmt"
	"math"
	"sort"

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

// DetectAck reports whether an ACK burst starting at start is present in
// the series, along with the best correlation found. Detection uses the
// same per-channel preamble correlation as normal decoding, thresholded at
// the decoder's MinCorrelation.
func (d *Decoder) DetectAck(s *csi.Series, start float64) (bool, float64, error) {
	if s.Len() == 0 {
		return false, 0, fmt.Errorf("uplink: empty measurement series")
	}
	nbits := len(preambleLevels)
	ts := s.Timestamps()
	lo, hi := frameRange(ts, start, start+float64(nbits)*d.cfg.BitDuration)
	if hi-lo < nbits {
		// Too few measurements to cover the burst.
		return false, 0, nil
	}
	ts = ts[lo:hi]
	// One lane of frame scratch, reused by every channel in turn.
	fs := getScratch(1, hi-lo, nbits)
	defer putScratch(fs)
	binByTimestamp(fs.off, ts, start, d.cfg.BitDuration)
	window := windowSamples(ts, d.cfg.windowFor())
	best := 0.0
	var corrs []float64
	for a := 0; a < s.Antennas(); a++ {
		for k := 0; k < s.Subchannels(); k++ {
			raw, err := s.CSIChannel(a, k)
			if err != nil {
				return false, 0, err
			}
			st := analyzeChannel(ChannelID{a, k}, raw[lo:hi], fs.cond, fs.off, window, fs.means, fs.ok)
			corrs = append(corrs, math.Abs(st.corr))
		}
	}
	// A real ACK lifts many channels at once; require the tenth-best
	// correlation to clear a raised threshold so noise on a few of the
	// 90 channels cannot fake a detection (a noise-only correlation over
	// 13 bins has σ ≈ 0.28, so individual channels cross 0.5 routinely
	// and roughly one in a hundred crosses 0.72).
	thresh := d.cfg.MinCorrelation
	if thresh < 0.72 {
		thresh = 0.72
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(corrs)))
	idx := 9
	if idx >= len(corrs) {
		idx = len(corrs) - 1
	}
	best = corrs[0]
	return corrs[idx] >= thresh, best, nil
}
