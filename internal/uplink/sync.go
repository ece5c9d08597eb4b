package uplink

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/csi"
	"repro/internal/dsp"
)

// Transmission detection (§3.2): "the Wi-Fi reader correlates with the
// preamble along every sub-channel ... while waiting for an incoming
// transmission. When a transmission arrives (which is identified by a peak
// in the correlation) ...". FindTransmission scans a time range for the
// tag's Barker preamble and returns the aligned start time, letting the
// reader decode responses whose exact timing it does not know.

// Detection is confirmed when this many channels correlate at once —
// single-channel noise correlations are common (σ ≈ 0.28 over 13 bins),
// and the scan's many candidate offsets inflate the noise tail further,
// hence the higher bar than one-shot ACK detection.
const syncChannelRank = 9 // tenth-best (0-indexed)

// syncThreshold is the per-channel correlation floor for the rank test.
const syncThreshold = 0.8

// FindTransmission scans [from, to) for a preamble-aligned transmission
// start, on a grid of a quarter bit period. It returns the best-aligned
// start time and whether the detection criterion was met. The scan only
// inspects the preamble's 13 bits, so it works for any payload length.
func (d *Decoder) FindTransmission(s *csi.Series, from, to float64) (start float64, found bool, err error) {
	if s.Len() == 0 {
		return 0, false, fmt.Errorf("uplink: empty measurement series")
	}
	if !(to > from) {
		return 0, false, fmt.Errorf("uplink: empty scan range [%v, %v)", from, to)
	}
	bitDur := d.cfg.BitDuration
	preambleDur := float64(len(preambleLevels)) * bitDur
	ts := s.Timestamps()
	// Condition every channel once over the scan region (with margin for
	// the moving-average window).
	margin := d.cfg.windowFor()
	lo, hi := frameRange(ts, from-margin, to+preambleDur+margin)
	if hi-lo < len(preambleLevels) {
		return 0, false, nil
	}
	tsR := ts[lo:hi]
	window := windowSamples(tsR, margin)
	type condChannel struct {
		cond []float64
	}
	var channels []condChannel
	for a := 0; a < s.Antennas(); a++ {
		for k := 0; k < s.Subchannels(); k++ {
			raw, cerr := s.CSIChannel(a, k)
			if cerr != nil {
				return 0, false, cerr
			}
			channels = append(channels, condChannel{
				cond: dsp.Condition(raw[lo:hi], window),
			})
		}
	}
	// Common-mode rejection: per-packet AGC noise moves every channel
	// identically and would correlate on all of them at once, which is
	// exactly what the many-channel rank test is meant to exclude. The
	// tag's couplings have random signs across channels, so subtracting
	// the per-sample cross-channel mean removes the common mode while
	// barely touching the signal.
	n := len(channels[0].cond)
	for i := 0; i < n; i++ {
		var mean float64
		for ci := range channels {
			mean += channels[ci].cond[i]
		}
		mean /= float64(len(channels))
		for ci := range channels {
			channels[ci].cond[i] -= mean
		}
	}
	// Scan candidate starts on a quarter-bit grid.
	bestScore := 0.0
	bestStart := 0.0
	step := bitDur / 4
	corrs := make([]float64, len(channels))
	off := make([]int, len(preambleLevels)+1)
	for cand := from; cand < to; cand += step {
		binByTimestamp(off, tsR, cand, bitDur)
		for ci := range channels {
			corrs[ci] = math.Abs(preambleCorr(channels[ci].cond, off))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(corrs)))
		rank := syncChannelRank
		if rank >= len(corrs) {
			rank = len(corrs) - 1
		}
		if corrs[rank] > bestScore {
			bestScore = corrs[rank]
			bestStart = cand
		}
	}
	return bestStart, bestScore >= syncThreshold, nil
}

// preambleCorr computes the normalized correlation of per-bin means
// against the Barker template, over the bins whose boundaries are off.
func preambleCorr(cond []float64, off []int) float64 {
	var dot, mm, pp float64
	for j := 0; j < len(preambleLevels) && j+1 < len(off); j++ {
		bin := cond[off[j]:off[j+1]]
		if len(bin) == 0 {
			continue
		}
		var sum float64
		for _, v := range bin {
			sum += v
		}
		mean := sum / float64(len(bin))
		dot += mean * preambleLevels[j]
		mm += mean * mean
		pp += preambleLevels[j] * preambleLevels[j]
	}
	if mm == 0 || pp == 0 {
		return 0
	}
	return dot / math.Sqrt(mm*pp)
}
