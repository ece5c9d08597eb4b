package uplink

import (
	"fmt"

	"repro/internal/csi"
)

// This file provides controlled variants of the decoding pipeline so each
// design choice in §3.2 can be ablated: the combining rule, the decision
// rule, and the bit-binning rule. Each is a stage choice of the one
// streaming pipeline (StreamDecoder.decode): the main decoder always uses
// the paper's choices; Variant selects an alternative for side-by-side
// comparison.

// Combining selects how good sub-channels merge.
type Combining int

// Combining rules.
const (
	// CombineMRC weights each channel by 1/σ² (the paper's choice,
	// optimal for Gaussian noise).
	CombineMRC Combining = iota
	// CombineEqualGain sums the conditioned channels with equal weight.
	CombineEqualGain
	// CombineBestSingle uses only the highest-correlation channel.
	CombineBestSingle
)

// String implements fmt.Stringer.
func (c Combining) String() string {
	switch c {
	case CombineEqualGain:
		return "equal-gain"
	case CombineBestSingle:
		return "best-single"
	}
	return "mrc"
}

// Decision selects how measurements become bits.
type Decision int

// Decision rules.
const (
	// DecideHysteresisVote applies the µ±σ/2 hysteresis comparator per
	// measurement and majority-votes per bit (the paper's choice).
	DecideHysteresisVote Decision = iota
	// DecidePlainVote majority-votes the raw signs, no hysteresis.
	DecidePlainVote
	// DecideBitMean thresholds the mean of each bit's measurements at
	// zero (no voting).
	DecideBitMean
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecidePlainVote:
		return "plain-vote"
	case DecideBitMean:
		return "bit-mean"
	}
	return "hysteresis-vote"
}

// Binning selects how measurements map to bit positions.
type Binning int

// Binning rules.
const (
	// BinTimestamp groups measurements by packet timestamp (the paper's
	// choice, robust to bursty traffic).
	BinTimestamp Binning = iota
	// BinEqualCount splits the measurement sequence into equal-count
	// groups, ignoring timing — correct only for perfectly regular
	// traffic.
	BinEqualCount
)

// String implements fmt.Stringer.
func (b Binning) String() string {
	if b == BinEqualCount {
		return "equal-count"
	}
	return "timestamp"
}

// Variant configures an ablated decoder.
type Variant struct {
	Combining Combining
	Decision  Decision
	Binning   Binning
}

// PaperVariant is the pipeline exactly as §3.2 describes it.
var PaperVariant = Variant{}

// String implements fmt.Stringer.
func (v Variant) String() string {
	return fmt.Sprintf("%s/%s/%s", v.Combining, v.Decision, v.Binning)
}

// NewVariantStream is NewStream (CSI) with the variant's stage choices:
// the streaming form of DecodeVariant. The PaperVariant stream is exactly
// a CSI stream.
func (d *Decoder) NewVariantStream(start float64, payloadLen int, v Variant) (*StreamDecoder, error) {
	sd, err := d.newStream(start, payloadLen, 1, StreamCSI)
	if err != nil {
		return nil, err
	}
	sd.v = v
	return sd, nil
}

// DecodeVariant decodes a payload with the selected pipeline variant: a
// push-all-then-flush wrapper over a NewVariantStream, so the PaperVariant
// is exactly DecodeCSI.
func (d *Decoder) DecodeVariant(s *csi.Series, start float64, payloadLen int, v Variant) (*Result, error) {
	sd, err := d.NewVariantStream(start, payloadLen, v)
	if err != nil {
		return nil, err
	}
	return sd.pushAll(s)
}

// binEqualCount ignores timestamps: measurements inside the transmission
// window are split into equal-count bins in arrival order. Like
// binByTimestamp it writes nbits+1 boundaries into off; ts is
// non-decreasing, so the in-window measurements are one index range and
// bin indices never decrease along it.
func binEqualCount(off []int, ts []float64, start, bitDur float64) {
	nbits := len(off) - 1
	lo, hi := frameRange(ts, start, start+float64(nbits)*bitDur)
	per := float64(hi-lo) / float64(nbits)
	j := 0
	for b := 0; b < nbits; b++ {
		for j < hi-lo && min(int(float64(j)/per), nbits-1) < b {
			j++
		}
		off[b] = lo + j
	}
	off[nbits] = hi
}
