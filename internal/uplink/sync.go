package uplink

import (
	"fmt"
	"math"

	"repro/internal/csi"
	"repro/internal/dsp"
)

// Transmission detection (§3.2): "the Wi-Fi reader correlates with the
// preamble along every sub-channel ... while waiting for an incoming
// transmission. When a transmission arrives (which is identified by a peak
// in the correlation) ...". FindTransmission scans a time range for the
// tag's Barker preamble and returns the aligned start time, letting the
// reader decode responses whose exact timing it does not know.

// syncThreshold is the floor the tenth-best lane's correlation must reach
// (see rankedScore). The scan's many candidate offsets inflate the noise
// tail, hence the higher bar than one-shot ACK detection.
const syncThreshold = 0.8

// FindTransmission scans [from, to) for a preamble-aligned transmission
// start, on a grid of a quarter bit period. It returns the best-aligned
// start time and whether the detection criterion was met. The scan only
// inspects the preamble's 13 bits, so it works for any payload length.
func (d *Decoder) FindTransmission(s *csi.Series, from, to float64) (start float64, found bool, err error) {
	if err = checkSeries(s); err != nil {
		return 0, false, err
	}
	if !(to > from) {
		return 0, false, fmt.Errorf("uplink: empty scan range [%v, %v)", from, to)
	}
	bitDur := d.cfg.BitDuration
	preambleDur := float64(len(preambleLevels)) * bitDur
	// Condition every lane once over the scan region (with margin for the
	// moving-average window).
	margin := d.cfg.windowFor()
	sd := d.newWindow(s, from-margin, to+preambleDur+margin)
	defer sd.release()
	n := sd.n
	if n < len(preambleLevels) {
		return 0, false, nil
	}
	ts := sd.times()
	fs := getScratch(sd.nchan(), n, sd.nbits)
	defer putScratch(fs)
	stats := fs.stats
	fs.split.Run(sd.nchan(), fs.chunks, sd.laneJob(fs), conditionLaneRange)
	// Common-mode rejection: per-packet AGC noise moves every channel
	// identically and would correlate on all of them at once, which is
	// exactly what the many-channel rank test is meant to exclude. The
	// tag's couplings have random signs across channels, so subtracting
	// the per-sample cross-channel mean removes the common mode while
	// barely touching the signal.
	for i := 0; i < n; i++ {
		var mean float64
		for c := range stats {
			mean += stats[c].cond[i]
		}
		mean /= float64(len(stats))
		for c := range stats {
			stats[c].cond[i] -= mean
		}
	}
	// Scan candidate starts on a quarter-bit grid.
	bestScore := 0.0
	bestStart := 0.0
	step := bitDur / 4
	for cand := from; cand < to; cand += step {
		binByTimestamp(fs.off, ts, cand, bitDur)
		for c := range stats {
			st := &stats[c]
			st.score = math.Abs(binCorrelate(st.cond, fs.off, st.means, st.ok))
		}
		if err = rankLanes(stats); err != nil {
			return 0, false, err
		}
		if r := rankedScore(stats); r > bestScore {
			bestScore, bestStart = r, cand
		}
	}
	return bestStart, bestScore >= syncThreshold, nil
}

// conditionLaneRange conditions lanes [lo, hi), chunk c, for
// FindTransmission's scan, which bins and scores them once per candidate
// start. Like scoreLaneRange, a lane writes only its own slots and its
// chunk's prefix row.
func conditionLaneRange(j laneJob, c, lo, hi int) {
	sd, fs, n := j.sd, j.fs, j.sd.n
	prefix := fs.prefixRow(c, n)
	for i := lo; i < hi; i++ {
		cond, means, ok := fs.lane(i, n, sd.nbits)
		dsp.ConditionInto(cond, sd.lane(i), prefix, j.window)
		fs.stats[i] = channelStats{cond: cond, means: means, ok: ok}
	}
}
