// Package uplink implements the Wi-Fi reader's decoding of tag
// transmissions from channel measurements — the paper's core contribution
// (§3). The pipeline is one chain of stage functions on StreamDecoder
// (stream.go):
//
//  1. Bin: group measurements into tag bits using per-packet timestamps
//     (§3.2 step 2a). Timestamps are non-decreasing, so each bin is a
//     contiguous index range and the binning is nbits+1 boundary offsets.
//  2. Condition and score: per channel, in one fused pass, subtract a
//     moving average (400 ms window) to remove environmental drift,
//     normalize so the two switch states map to ±1 (§3.2 step 1), and
//     correlate the bit means with the known Barker preamble. The
//     channels are independent, so they run in contiguous chunks on
//     every core (parallel.Split); each writes only its own scratch
//     slots, and the decode is bit-identical at any GOMAXPROCS.
//  3. Select: keep the best G (antenna, sub-channel) pairs (§3.2 step 2a).
//  4. Combine: maximum-ratio combining weights each good sub-channel by
//     1/σ², with σ² estimated from its preamble residual (§3.2 step 2b).
//  5. Decide: hysteresis thresholds at µ ± σ/2 suppress spurious CSI
//     jumps, and a majority vote across the measurements of each bit
//     produces the decoded bit (§3.2 step 3).
//
// The frame close runs in one pooled frame scratch (stream.go), so it
// allocates only the Result and bits it returns, whatever the channel and
// core counts. Every entry point runs through that chain. DecodeRSSI and
// DecodeSingleChannel select one channel (§3.3, the Fig. 11 baseline);
// DecodeVariant swaps the binning, combining or decision rule for the
// ablations (ablation.go); DecodeLongRange stretches the frame to chip
// codes and swaps the score and decide stages for the orthogonal-code
// correlation that extends range at the cost of rate (§3.4, longrange.go).
// The preamble detectors use the same frame arena and stages without
// decoding: DetectAck scores a 13-bit, preamble-only frame (§4.1, ack.go)
// and FindTransmission sweeps candidate offsets of one (§3.2, sync.go).
package uplink

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/obs"
)

// Config tunes the decoder. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// BitDuration of tag bits in seconds.
	BitDuration float64
	// ConditionWindow is the moving-average window in seconds (§3.2 uses
	// 400 ms).
	ConditionWindow float64
	// GoodSubchannels is the number of sub-channels kept after preamble
	// correlation ranking (§3.2 picks the top ten).
	GoodSubchannels int
	// MinCorrelation is the preamble correlation below which a
	// transmission is not considered detected.
	MinCorrelation float64
}

// DefaultConfig returns the paper's decoder parameters.
func DefaultConfig(bitDuration float64) Config {
	return Config{
		BitDuration:     bitDuration,
		ConditionWindow: 0.4,
		GoodSubchannels: 10,
		MinCorrelation:  0.5,
	}
}

// ChannelID names one measurement channel: an (antenna, sub-channel) CSI
// pair, or an antenna's RSSI when Subchannel is -1.
type ChannelID struct {
	Antenna    int
	Subchannel int
}

// String implements fmt.Stringer.
func (c ChannelID) String() string {
	if c.Subchannel < 0 {
		return fmt.Sprintf("rssi[ant %d]", c.Antenna)
	}
	return fmt.Sprintf("csi[ant %d, sub %d]", c.Antenna, c.Subchannel)
}

// Result is a decoded uplink transmission.
type Result struct {
	// Payload holds the decoded payload bits.
	Payload []bool
	// Good lists the channels selected for combining, best first.
	Good []ChannelID
	// PreambleCorrelation is the best channel's preamble correlation.
	PreambleCorrelation float64
	// MeasurementsPerBit is the mean number of channel measurements each
	// bit was decoded from.
	MeasurementsPerBit float64
}

// preambleLevels is the ±1 template of the tag preamble.
var preambleLevels = dsp.Barker13

// binByTimestamp groups measurements into tag-bit bins using the
// per-packet timestamps (§3.2: "we use the timestamp that is in every
// Wi-Fi packet header to accurately group Wi-Fi packets belonging to the
// same bit transmission"). ts is non-decreasing, so bin j — the samples
// with floor((t−start)/bitDur) == j — is one contiguous index range
// [off[j], off[j+1]); off has one entry per bin plus one, and samples
// before off[0] or from off[len(off)-1] on fall outside the frame.
func binByTimestamp(off []int, ts []float64, start, bitDur float64) {
	i := 0
	for j := range off {
		for i < len(ts) && int(math.Floor((ts[i]-start)/bitDur)) < j {
			i++
		}
		off[j] = i
	}
}

// windowSamples converts the conditioning window from seconds to a sample
// count using the series' average measurement spacing.
func windowSamples(ts []float64, window float64) int {
	if len(ts) < 2 {
		return 1
	}
	span := ts[len(ts)-1] - ts[0]
	if span <= 0 {
		return 1
	}
	spacing := span / float64(len(ts)-1)
	n := int(window / spacing)
	if n < 2 {
		n = 2
	}
	return n
}

// channelStats holds one channel's conditioned series and preamble fit.
// cond, means and ok are views into the decode's frameScratch.
type channelStats struct {
	id       ChannelID
	corr     float64 // signed preamble correlation
	sign     float64 // polarity (+1/-1)
	variance float64 // per-measurement residual variance during preamble
	score    float64 // selection rank key, higher is better
	cond     []float64
	means    []float64 // per-bin means of cond (0 where !ok)
	ok       []bool    // whether each bin held any measurement
}

// windowFor returns the conditioning window in seconds. The configured
// 400 ms window must span many bit periods — a window comparable to a run
// of identical bits subtracts the tag's own modulation, which matters for
// slow links such as beacon-only decoding (Fig. 16) — so it is floored at
// 24 bits (the paper's 400 ms is 40 bits at its usual 100 bps). Because
// decoding conditions only the frame's measurements (the stream buffers
// nothing else), the window may exceed the frame without the idle-level
// bias that out-of-frame samples would introduce.
func (c Config) windowFor() float64 {
	w := c.ConditionWindow
	if min := 24 * c.BitDuration; w < min {
		w = min
	}
	return w
}

// frameRange returns the index range [lo, hi) of timestamps within the
// transmission window, assuming ts is non-decreasing. Conditioning only
// in-frame measurements keeps the tag's idle level (which equals the
// zero-bit level) out of the baseline estimate.
func frameRange(ts []float64, start, end float64) (lo, hi int) {
	lo = sort.SearchFloat64s(ts, start)
	hi = lo
	for hi < len(ts) && ts[hi] < end {
		hi++
	}
	return lo, hi
}

// analyzeChannel is the fused condition → bin-mean → preamble-score pass
// for one channel: it conditions raw into cond (window in samples, over
// the scratch prefix row), then bins it with binCorrelate. The score is the correlation's magnitude. A
// second pass over the 13 preamble bins alone estimates the residual
// variance MRC weights by.
func analyzeChannel(id ChannelID, raw, cond, prefix []float64, off []int, window int, means []float64, ok []bool) channelStats {
	dsp.ConditionTwoPassInto(cond, raw, prefix, window)
	st := channelStats{id: id, cond: cond, means: means, ok: ok, sign: 1}
	st.corr = binCorrelate(cond, off, means, ok)
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

// binCorrelate walks the bins of cond once, writing each bin's mean into
// means (and whether it held a measurement into ok) and accumulating the
// preamble dot products alongside. It returns the signed correlation of
// the preamble bins' means with the Barker template, 0 when they are all
// empty or zero.
func binCorrelate(cond []float64, off []int, means []float64, ok []bool) float64 {
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
	if mm > 0 && pp > 0 {
		return dot / math.Sqrt(mm*pp)
	}
	return 0
}

// ChannelImpairment lets a fault layer perturb an extracted channel series
// in place before conditioning (see internal/faults). ts and raw are the
// in-frame timestamps and samples of the channel named by id; raw may be
// mutated, ts is shared across channels and must be treated as read-only.
// Implementations must be deterministic and must draw only from their own
// randomness stream.
type ChannelImpairment interface {
	ImpairChannel(id ChannelID, ts, raw []float64)
}

// Decoder decodes tag transmissions from measurement series.
type Decoder struct {
	cfg Config
	met decoderMetrics

	// Impair, when non-nil, corrupts each extracted channel before a
	// decode conditions and scores it (core wires the fault injector
	// here). The preamble detectors read the channels unimpaired.
	Impair ChannelImpairment
}

// decoderMetrics holds the decoder's obs handles; the zero value means
// "not instrumented" (nil handles no-op).
type decoderMetrics struct {
	decodes          *obs.Counter
	channelsAnalyzed *obs.Counter
	channelsSelected *obs.Counter
	channelsRejected *obs.Counter
	bitsDecoded      *obs.Counter
	bitsFlipped      *obs.Counter // hysteresis decision transitions
	emptyBins        *obs.Counter
	corr             *obs.Histogram
	measPerBit       *obs.Histogram

	// Streaming-core accounting (see stream.go). The batch entry points
	// are wrappers over the stream, so these tick for every decode.
	streamPushes      *obs.Counter
	streamBitsEmitted *obs.Counter
	streamFlushBits   *obs.Counter // bits only finalized by Flush (truncated traces)
	streamHighwater   *obs.Gauge   // frame-arena occupancy (max = high-water)
}

// Instrument registers the decoder's per-stage pipeline accounting on r
// (uplink.* in the README's metric catalog): channels analyzed vs kept by
// the sub-channel selection, bits decoded, hysteresis flips, empty bit
// bins, and the distributions of preamble correlation and measurement
// density. A nil registry detaches the metrics.
func (d *Decoder) Instrument(r *obs.Registry) {
	d.met = decoderMetrics{
		decodes:          r.Counter("uplink.decodes"),
		channelsAnalyzed: r.Counter("uplink.channels_analyzed"),
		channelsSelected: r.Counter("uplink.channels_selected"),
		channelsRejected: r.Counter("uplink.channels_rejected"),
		bitsDecoded:      r.Counter("uplink.bits_decoded"),
		bitsFlipped:      r.Counter("uplink.hysteresis_flips"),
		emptyBins:        r.Counter("uplink.empty_bins"),
		corr:             r.Histogram("uplink.preamble_correlation", obs.UnitBuckets),
		measPerBit:       r.Histogram("uplink.measurements_per_bit", obs.LinearBuckets(0, 5, 16)),

		streamPushes:      r.Counter("uplink.stream.pushes"),
		streamBitsEmitted: r.Counter("uplink.stream.bits_emitted"),
		streamFlushBits:   r.Counter("uplink.stream.flush_bits"),
		streamHighwater:   r.Gauge("uplink.stream.buffer_highwater"),
	}
}

// NewDecoder validates the config and returns a decoder.
func NewDecoder(cfg Config) (*Decoder, error) {
	if cfg.BitDuration <= 0 {
		return nil, fmt.Errorf("uplink: bit duration must be positive, got %v", cfg.BitDuration)
	}
	if cfg.ConditionWindow <= 0 {
		return nil, fmt.Errorf("uplink: condition window must be positive, got %v", cfg.ConditionWindow)
	}
	if cfg.GoodSubchannels <= 0 {
		return nil, fmt.Errorf("uplink: need at least one good sub-channel")
	}
	return &Decoder{cfg: cfg}, nil
}

// Config returns the decoder's configuration.
func (d *Decoder) Config() Config { return d.cfg }

// DecodeCSI decodes a payload of payloadLen bits from the CSI series of a
// transmission starting at start. The series must cover the transmission
// and its timestamps must be non-decreasing. It is a push-all-then-flush
// wrapper over StreamDecoder (see stream.go): the streaming core is the
// only decode implementation, and its output is byte-identical however the
// same series is chunked into pushes.
func (d *Decoder) DecodeCSI(s *csi.Series, start float64, payloadLen int) (*Result, error) {
	sd, err := d.NewStream(start, payloadLen, StreamCSI)
	if err != nil {
		return nil, err
	}
	return sd.pushAll(s)
}

// DecodeRSSI decodes using only RSSI: the antenna with the best preamble
// correlation is selected (§3.3) and decoded alone. Like DecodeCSI it is a
// thin wrapper over the streaming core.
func (d *Decoder) DecodeRSSI(s *csi.Series, start float64, payloadLen int) (*Result, error) {
	sd, err := d.NewStream(start, payloadLen, StreamRSSI)
	if err != nil {
		return nil, err
	}
	return sd.pushAll(s)
}

// checkSeries rejects an empty or malformed series, as every whole-series
// entry point does before it reads one.
func checkSeries(s *csi.Series) error {
	if s.Len() == 0 {
		return fmt.Errorf("uplink: empty measurement series")
	}
	return s.CheckShape()
}

// Detected reports whether the result's preamble correlation clears the
// configured detection threshold.
func (d *Decoder) Detected(r *Result) bool {
	return r != nil && r.PreambleCorrelation >= d.cfg.MinCorrelation
}

// NormalizedChannel exposes the conditioned (detrended, normalized) series
// of one CSI channel — the quantity whose PDF Fig. 4 plots.
func (d *Decoder) NormalizedChannel(s *csi.Series, antenna, subchannel int) ([]float64, error) {
	if err := s.CheckShape(); err != nil {
		return nil, err
	}
	raw, err := s.CSIChannel(antenna, subchannel)
	if err != nil {
		return nil, err
	}
	return dsp.Condition(raw, windowSamples(s.Timestamps(), d.cfg.ConditionWindow)), nil
}

// DecodeSingleChannel decodes the payload using exactly one CSI channel —
// the "Random-Subchannel" baseline of Fig. 11 and the per-sub-channel BER
// probe of Fig. 5. It too wraps the streaming core.
func (d *Decoder) DecodeSingleChannel(s *csi.Series, start float64, payloadLen, antenna, subchannel int) (*Result, error) {
	sd, err := d.NewSingleChannelStream(start, payloadLen, antenna, subchannel)
	if err != nil {
		return nil, err
	}
	return sd.pushAll(s)
}
