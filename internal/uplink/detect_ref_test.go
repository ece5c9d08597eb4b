package uplink

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/tag"
)

// The equivalence oracle for the preamble detectors: DetectAck and
// FindTransmission as they were before they ran on the decoder's frame
// arena and stages, kept verbatim (renamed with a ref prefix, methods
// turned into functions of the decoder) together with the channel
// analysis and preamble correlation they called. The detectors must
// reproduce them bit for bit, because the inventory and ACK goldens and
// the pinned benchmark digests rest on their verdicts and scores.

func refDetectAck(d *Decoder, s *csi.Series, start float64) (bool, float64, error) {
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
			st := refAnalyzeChannel(ChannelID{a, k}, raw[lo:hi], fs.cond, fs.off, window, fs.means, fs.ok)
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

// refSyncChannelRank and refSyncThreshold are the parent scan's rank
// test: the tenth-best channel against 0.8.
const refSyncChannelRank = 9

const refSyncThreshold = 0.8

func refFindTransmission(d *Decoder, s *csi.Series, from, to float64) (start float64, found bool, err error) {
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
			corrs[ci] = math.Abs(refPreambleCorr(channels[ci].cond, off))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(corrs)))
		rank := refSyncChannelRank
		if rank >= len(corrs) {
			rank = len(corrs) - 1
		}
		if corrs[rank] > bestScore {
			bestScore = corrs[rank]
			bestStart = cand
		}
	}
	return bestStart, bestScore >= refSyncThreshold, nil
}

func refPreambleCorr(cond []float64, off []int) float64 {
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

func refAnalyzeChannel(id ChannelID, raw, cond []float64, off []int, window int, means []float64, ok []bool) channelStats {
	dsp.ConditionTwoPassInto(cond, raw, window)
	var dot, mm, pp float64
	for j := range means {
		lo, hi := off[j], off[j+1]
		if lo == hi {
			means[j], ok[j] = 0, false
			continue
		}
		var sum float64
		for _, v := range cond[lo:hi] {
			sum += v
		}
		m := sum / float64(hi-lo)
		means[j], ok[j] = m, true
		if j < len(preambleLevels) {
			dot += m * preambleLevels[j]
			mm += m * m
			pp += preambleLevels[j] * preambleLevels[j]
		}
	}
	st := channelStats{id: id, cond: cond, means: means, ok: ok, sign: 1}
	if mm > 0 && pp > 0 {
		st.corr = dot / math.Sqrt(mm*pp)
	}
	if st.corr < 0 {
		st.sign = -1
	}
	st.score = math.Abs(st.corr)
	// Per-measurement residual variance over the preamble bins, with the
	// template sign applied.
	var res, n float64
	for j := 0; j < len(preambleLevels) && j < len(means); j++ {
		for _, v := range cond[off[j]:off[j+1]] {
			d := st.sign*v - preambleLevels[j]
			res += d * d
			n++
		}
	}
	if n > 1 {
		st.variance = res / (n - 1)
	} else {
		st.variance = math.Inf(1)
	}
	if st.variance < 1e-9 {
		st.variance = 1e-9
	}
	return st
}

// TestDetectorsMatchReference compares both detectors with the reference
// by math.Float64bits over seeds, bit durations, detector configs, ACK
// windows (aligned, offset across the whole frame, idle, past the trace,
// and on a series too sparse to fill a burst) and scan ranges.
func TestDetectorsMatchReference(t *testing.T) {
	var acks, ackHits, scans, scanHits int
	for _, bitDur := range []float64{0.004, 0.01, 0.02} {
		for seed := int64(1); seed <= 3; seed++ {
			payload := randomPayload(16, 70+seed)
			txStart := 0.45 + 0.37*bitDur*float64(seed) // off the scan grid
			mod, err := tag.NewModulator(tag.FrameBits(payload), txStart, bitDur)
			if err != nil {
				t.Fatal(err)
			}
			cfg := defaultSynth()
			cfg.duration = mod.End() + 0.25
			dense := synthSeries(cfg, mod, seed)
			cfg.pktRate = 0.5 / bitDur // half a measurement per bit
			sparse := synthSeries(cfg, mod, seed+100)

			// Aligned and offset on the preamble and the postamble, inside
			// the payload, idle before and after, and past the trace.
			post := mod.End() - 13*bitDur
			var windows []float64
			for _, f := range []float64{-2, -0.6, -0.25, 0, 0.25, 0.6, 1, 3, 8, 14} {
				windows = append(windows, txStart+f*bitDur)
			}
			windows = append(windows, post-0.25*bitDur, post, post+0.4*bitDur, 0.1, mod.End()+0.2, cfg.duration+1)
			scanRanges := [][2]float64{
				{txStart - 6*bitDur, txStart + 6*bitDur},
				{txStart - 0.1, txStart + 0.05},
				{mod.End() + 0.05, mod.End() + 0.15},
				{cfg.duration + 1, cfg.duration + 1.1},
			}
			for _, minCorr := range []float64{0.5, 0.9} {
				for _, good := range []int{10, 4} {
					dc := DefaultConfig(bitDur)
					dc.MinCorrelation, dc.GoodSubchannels = minCorr, good
					d, err := NewDecoder(dc)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("bitDur=%v/seed=%d/minCorr=%v/good=%d", bitDur, seed, minCorr, good)
					for si, s := range []*csi.Series{dense, sparse} {
						for _, w := range windows {
							ok, corr, err := d.DetectAck(s, w)
							rok, rcorr, rerr := refDetectAck(d, s, w)
							requireSame(t, fmt.Sprintf("%s/series=%d: DetectAck(%v)", name, si, w),
								ok, corr, err, rok, rcorr, rerr)
							acks++
							if ok {
								ackHits++
							}
						}
						for _, r := range scanRanges {
							at, found, err := d.FindTransmission(s, r[0], r[1])
							rat, rfound, rerr := refFindTransmission(d, s, r[0], r[1])
							requireSame(t, fmt.Sprintf("%s/series=%d: FindTransmission(%v, %v)", name, si, r[0], r[1]),
								found, at, err, rfound, rat, rerr)
							scans++
							if found {
								scanHits++
							}
						}
					}
					// The error paths: an empty series, an empty range.
					ok, corr, err := d.DetectAck(&csi.Series{}, txStart)
					rok, rcorr, rerr := refDetectAck(d, &csi.Series{}, txStart)
					requireSame(t, name+": DetectAck(empty)", ok, corr, err, rok, rcorr, rerr)
					at, found, err := d.FindTransmission(dense, 1, 1)
					rat, rfound, rerr := refFindTransmission(d, dense, 1, 1)
					requireSame(t, name+": FindTransmission(empty range)", found, at, err, rfound, rat, rerr)
				}
			}
		}
	}
	t.Logf("%d ACK windows (%d detections), %d scans (%d found)", acks, ackHits, scans, scanHits)
	// The comparison means little unless both verdicts occur.
	if ackHits == 0 || ackHits == acks || scanHits == 0 || scanHits == scans {
		t.Errorf("degenerate cases: %d/%d ACK detections, %d/%d scans found", ackHits, acks, scanHits, scans)
	}
}

// requireSame fails unless a detector's verdict, value and error equal
// the reference's, the value bit for bit.
func requireSame(t *testing.T, what string, ok bool, v float64, err error, rok bool, rv float64, rerr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("%s: error %v, reference %v", what, err, rerr)
	}
	if ok != rok || math.Float64bits(v) != math.Float64bits(rv) {
		t.Fatalf("%s = (%v, %v), reference (%v, %v)", what, ok, v, rok, rv)
	}
}
