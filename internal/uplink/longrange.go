package uplink

import (
	"fmt"
	"math"

	"repro/internal/csi"
)

// Long-range decoding (§3.4): at distances where the two channel levels are
// no longer distinct (Fig. 6), the tag represents each payload bit with one
// of two orthogonal chip codes of length L, and the reader correlates the
// conditioned channel measurements with both codes, outputting the bit with
// the larger correlation. Correlation over L chips buys an SNR gain
// proportional to L, extending range (Fig. 20); the tag's power draw is
// unchanged because it still just toggles its switch.
//
// It is the streaming pipeline with two stages swapped: channels are
// scored by code discriminability (codeScore) instead of preamble
// correlation, and bits are decided by code correlation (decideCodes)
// instead of combining and voting.

// LongRangeResult is a decoded long-range transmission.
type LongRangeResult struct {
	// Payload holds the decoded bits.
	Payload []bool
	// Margins holds each bit's normalized decision margin
	// (|corr1 − corr0| relative to the total correlation energy).
	Margins []float64
	// Good lists the channels used, best first.
	Good []ChannelID
}

// DecodeLongRange decodes payloadLen bits that were transmitted as chip
// codes code0/code1 (equal length L) starting at time start. Chips have the
// decoder's configured BitDuration, and the frame layout is
// preamble + payloadLen·L chips + postamble. Like DecodeCSI it is a
// push-all-then-flush wrapper over the streaming core.
//
// The decision metric compares |corr(code1)| against |corr(code0)|, which
// is polarity-free: code orthogonality guarantees the wrong code correlates
// only with noise regardless of the channel's sign.
func (d *Decoder) DecodeLongRange(s *csi.Series, start float64, payloadLen int, code0, code1 []float64) (*LongRangeResult, error) {
	if len(code0) == 0 || len(code0) != len(code1) {
		return nil, fmt.Errorf("uplink: code lengths must match and be positive (%d, %d)",
			len(code0), len(code1))
	}
	sd, err := d.batchStream(s, start, payloadLen, len(code0), StreamCSI)
	if err != nil {
		return nil, err
	}
	sd.code0, sd.code1 = code0, code1
	res, err := sd.pushAll(s)
	if err != nil {
		return nil, err
	}
	return &LongRangeResult{Payload: res.Payload, Margins: sd.margins, Good: res.Good}, nil
}

// codeCorr correlates a channel's chip means across payload bit b with
// code.
func codeCorr(st *channelStats, b int, code []float64) float64 {
	base := 13 + b*len(code)
	var sum float64
	for j, c := range code {
		if st.ok[base+j] {
			sum += st.means[base+j] * c
		}
	}
	return sum
}

// codeScore is long range's score stage: a channel's total
// discriminability across bits, so selection "picks the Wi-Fi
// sub-channels that provide the maximum correlation peaks".
func (sd *StreamDecoder) codeScore(st *channelStats) float64 {
	var score float64
	for b := 0; b < sd.payloadLen; b++ {
		c1 := math.Abs(codeCorr(st, b, sd.code1))
		c0 := math.Abs(codeCorr(st, b, sd.code0))
		score += math.Abs(c1 - c0)
	}
	return score
}

// decideCodes is long range's decide stage: each bit goes to the code
// with the larger summed |correlation| over the selected channels.
func (sd *StreamDecoder) decideCodes(sel []channelStats, off []int) *Result {
	payload := make([]bool, sd.payloadLen)
	sd.margins = make([]float64, sd.payloadLen)
	for b := range payload {
		var metric, energy float64
		for i := range sel {
			c1 := math.Abs(codeCorr(&sel[i], b, sd.code1))
			c0 := math.Abs(codeCorr(&sel[i], b, sd.code0))
			metric += c1 - c0
			energy += c1 + c0
		}
		payload[b] = metric > 0
		if energy > 0 {
			sd.margins[b] = math.Abs(metric) / energy
		}
	}
	return sd.result(payload, sel, off)
}
