package uplink

// This file is the incremental streaming core of the decoder and the one
// implementation of its pipeline. Every batch entry point — DecodeCSI,
// DecodeRSSI, DecodeSingleChannel, the DecodeVariant ablations,
// DecodeLongRange and DetectAck — is a thin push-all-then-flush wrapper
// over StreamDecoder; see DESIGN.md §10 for the architecture and the
// equivalence argument.
//
// The memory contract: a StreamDecoder buffers only the measurements that
// fall inside the expected frame window [start, start+nbits·BitDuration).
// Out-of-frame pushes are validated, counted, and dropped, so a stream fed
// an arbitrarily long trace holds at most one frame's worth of samples —
// memory is bounded by the frame, not the trace. The frame arena is one
// slab from its own pool (arena.go): a lane of timestamps and one lane per
// channel, at a stride of an odd number of cache lines so the lanes never
// sit a multiple of 4 KiB apart. A batch entry point sizes it once for the
// frame's sorted range of measurements; a pushed stream sizes it for the
// frame from the spacing of its first samples. It goes back to the pool
// the moment the frame decodes (or the stream fails or flushes).
//
// The latency contract: the paper's pipeline is frame-global — the
// conditioning normalization, the preamble correlation that ranks
// sub-channels, the MRC weights, and the hysteresis thresholds (µ ± σ/2 of
// the combined series) are all statistics of the whole frame — so no bit
// can be finalized before the frame's last measurement without changing
// the decoded output. The stream therefore emits every bit at the first
// push whose timestamp reaches the frame end (one packet after the
// postamble), not at end-of-trace the way the old batch path did.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/parallel"
)

// ErrNoMeasurements is Flush's error when no measurement fell inside the
// frame window: the helper's traffic stalled or was lost for the whole
// frame, so there is nothing to decode. A caller measuring a link counts
// it as a frame that lost its whole payload.
var ErrNoMeasurements = errors.New("uplink: no measurements inside the transmission window")

// StreamMode selects the measurement source a StreamDecoder decodes from,
// mirroring the DecodeCSI / DecodeRSSI batch entry points.
type StreamMode int

// Stream modes.
const (
	// StreamCSI decodes from per-sub-channel CSI (§3.2).
	StreamCSI StreamMode = iota
	// StreamRSSI decodes from per-antenna RSSI only (§3.3).
	StreamRSSI
)

// String implements fmt.Stringer.
func (m StreamMode) String() string {
	if m == StreamRSSI {
		return "rssi"
	}
	return "csi"
}

// ParseStreamMode parses a mode's String form: "csi" or "rssi".
func ParseStreamMode(s string) (StreamMode, error) {
	switch s {
	case "csi":
		return StreamCSI, nil
	case "rssi":
		return StreamRSSI, nil
	}
	return 0, fmt.Errorf("uplink: unknown stream mode %q (want csi or rssi)", s)
}

// BitDecision is one decoded payload bit emitted by the streaming core.
type BitDecision struct {
	// Index is the payload bit position (0-based, framing excluded).
	Index int
	// Bit is the decoded value.
	Bit bool
	// Measurements is the number of channel measurements in the bit's
	// timestamp bin (0 means the majority vote defaulted to false).
	Measurements int
}

// StreamDecoder decodes one expected tag transmission incrementally: feed
// it measurements in timestamp order with Push as they arrive, and it
// emits the frame's bits as soon as a push's timestamp passes the frame
// end. Flush finalizes a stream whose trace ended inside the frame
// (decoding whatever arrived) and returns the full Result.
//
// Push requires non-decreasing timestamps — equal timestamps are legal,
// exactly as the batch decoders accept them in a csi.Series, so a capture
// that timestamps two packets identically (coarse clocks do) decodes the
// same live as it does in batch — and a consistent
// measurement shape; violations return an error and poison the stream
// (every later call returns the same error) — never a panic. A
// StreamDecoder is single-use and not safe for concurrent use.
type StreamDecoder struct {
	d    *Decoder
	mode StreamMode
	// single restricts the decode to one CSI channel (the
	// DecodeSingleChannel baseline).
	single              bool
	antenna, subchannel int

	// Stage choices. The zero Variant is the paper's pipeline; the
	// ablations swap its binning, combining or decision rule. A code pair
	// swaps the score and decide stages for §3.4 code correlation, whose
	// decide stage leaves its per-bit margins in margins.
	v            Variant
	code0, code1 []float64
	margins      []float64

	start, end float64
	payloadLen int
	chips      int // frame bins per payload bit: 1, or the code length
	nbits      int // frame bins: 13 + payloadLen·chips + 13

	// Shape, learned from the first push. rows is the CSI row count every
	// push carries: ants, or 0 for an RSSI stream without CSI.
	shaped           bool
	ants, subs, rows int

	pushes  int
	last    float64
	hasLast bool

	// The frame arena (arena.go): one pooled slab holding only in-frame
	// samples, a lane of timestamps and one lane per channel, stride
	// floats apart. times()[i] and lane(c)[i] describe the i-th in-frame
	// measurement; the channel order is a·subs+k for CSI (matching the
	// batch scan order), a for RSSI, and a single lane in single-channel
	// mode. frameLen, when the caller knows it, is the in-frame
	// measurement count the first store sizes the arena for; reserves
	// counts the slabs the arena has taken.
	slab     []float64
	stride   int
	n        int
	frameLen int
	reserves int
	closed   bool

	// The ACK check (ack.go). ack marks a frame whose first 13 bins are
	// scored as DetectAck scores a burst: the whole frame of an ACK stream
	// (NewAckStream), or the gate of an AwaitAck stream. acked is set once
	// the check has run, and detected and best hold its verdict.
	// deferred (DecodeAtFlush) holds the decode until Flush; ended records
	// that a push reached the frame end, which makes that decode a closed
	// frame's rather than a truncated trace's. The flags share a word with
	// closed and decoded, which keeps a stream in the allocator's 352-byte
	// class.
	ack, acked, detected bool
	deferred, ended      bool

	decoded bool
	best    float64
	emitted []BitDecision
	res     *Result
	err     error
}

// NewStream returns a streaming decoder for one transmission of
// payloadLen payload bits starting at start, decoding in the given mode.
func (d *Decoder) NewStream(start float64, payloadLen int, mode StreamMode) (*StreamDecoder, error) {
	if mode != StreamCSI && mode != StreamRSSI {
		return nil, fmt.Errorf("uplink: unknown stream mode %d", int(mode))
	}
	return d.newStream(start, payloadLen, 1, mode)
}

// NewSingleChannelStream is NewStream restricted to exactly one CSI
// channel — the streaming form of DecodeSingleChannel.
func (d *Decoder) NewSingleChannelStream(start float64, payloadLen, antenna, subchannel int) (*StreamDecoder, error) {
	if antenna < 0 || subchannel < 0 {
		return nil, fmt.Errorf("uplink: stream channel (%d, %d) out of range", antenna, subchannel)
	}
	sd, err := d.newStream(start, payloadLen, 1, StreamCSI)
	if err != nil {
		return nil, err
	}
	sd.single, sd.antenna, sd.subchannel = true, antenna, subchannel
	return sd, nil
}

// newStream sizes the frame: a 13-bit preamble, chips bins per payload
// bit, and a 13-bit postamble.
func (d *Decoder) newStream(start float64, payloadLen, chips int, mode StreamMode) (*StreamDecoder, error) {
	if payloadLen <= 0 {
		return nil, fmt.Errorf("uplink: payload length must be positive, got %d", payloadLen)
	}
	nbits := 13 + payloadLen*chips + 13
	return &StreamDecoder{
		d: d, mode: mode,
		start: start, end: start + float64(nbits)*d.cfg.BitDuration,
		payloadLen: payloadLen, chips: chips, nbits: nbits,
	}, nil
}

// newWindow loads the measurements of a checked series timestamped in
// [from, to), found by frameMeasurements' sorted search, into the arena
// of a preamble-only CSI stream (13 frame bins from from), sized once for
// them. FindTransmission scans it without Push or decode and releases
// the arena.
func (d *Decoder) newWindow(s *csi.Series, from, to float64) *StreamDecoder {
	sd := &StreamDecoder{d: d, start: from, end: to, nbits: len(preambleLevels),
		ants: s.Antennas(), subs: s.Subchannels()}
	lo, hi := frameMeasurements(s.Measurements, from, to)
	sd.frameLen = hi - lo
	for _, m := range s.Measurements[lo:hi] {
		sd.store(m)
	}
	return sd
}

// Start returns the expected frame start time.
func (sd *StreamDecoder) Start() float64 { return sd.start }

// End returns the expected frame end time (postamble included); the push
// that reaches it triggers the decode.
func (sd *StreamDecoder) End() float64 { return sd.end }

// Buffered returns the number of in-frame measurements currently held —
// the quantity the uplink.stream.buffer_highwater gauge tracks.
func (sd *StreamDecoder) Buffered() int { return sd.n }

// Done reports whether the frame has been decoded (bits emitted).
func (sd *StreamDecoder) Done() bool { return sd.decoded }

// Closed reports whether the stream takes no more pushes: it has been
// flushed, or it has failed.
func (sd *StreamDecoder) Closed() bool { return sd.closed || sd.err != nil }

// DecodeAtFlush makes the frame decode at Flush instead of at the first
// push that reaches the frame end; the pushes past the end are validated
// and counted as before. A caller that decodes at a moment of its own
// choosing (after Run, or at a scheduled event) sets it: Decoder.Impair
// draws when the frame decodes, so under a fault schedule that moment is
// part of the run's draw order. The frame's samples stay in the arena
// until Flush.
func (sd *StreamDecoder) DecodeAtFlush() { sd.deferred = true }

// Bits returns every bit decision emitted so far (nil before the frame
// closes). The slice is owned by the stream; do not mutate it.
func (sd *StreamDecoder) Bits() []BitDecision { return sd.emitted }

// Margins returns a long-range stream's per-bit decision margins
// (|corr1 − corr0| relative to the total correlation energy) once its
// frame has decoded, and nil otherwise. The slice is owned by the stream.
func (sd *StreamDecoder) Margins() []float64 { return sd.margins }

// Push feeds one measurement. Mid-frame pushes buffer and return nil; the
// first push whose timestamp reaches the frame end decodes the frame and
// returns every payload bit at once (the pipeline is frame-global, so
// that is the earliest any bit can be final — see the file comment).
// Steady-state pushes do not allocate: samples land in a pooled slab
// sized for the frame (arena.go).
func (sd *StreamDecoder) Push(m csi.Measurement) ([]BitDecision, error) {
	if sd.err != nil {
		return nil, sd.err
	}
	if sd.closed {
		// Invalid use, but the completed result stays retrievable: do not
		// poison a stream that already flushed successfully.
		return nil, fmt.Errorf("uplink: Push on a flushed stream")
	}
	if err := sd.checkShape(m); err != nil {
		return nil, sd.fail(err)
	}
	t := m.Timestamp
	if math.IsNaN(t) {
		return nil, sd.fail(fmt.Errorf("uplink: push %d has a NaN timestamp", sd.pushes))
	}
	if sd.hasLast && t < sd.last {
		return nil, sd.fail(fmt.Errorf("uplink: push %d timestamp %v goes backwards past %v; pushes must arrive in non-decreasing timestamp order",
			sd.pushes, t, sd.last))
	}
	sd.last, sd.hasLast = t, true
	sd.pushes++
	sd.d.met.streamPushes.Inc()
	if sd.ack && !sd.acked && t >= sd.ackEnd() {
		// The first push past the burst: the samples held are its window.
		if err := sd.checkAck(); err != nil {
			return nil, sd.fail(err)
		}
	}
	// In-frame membership is t in [start, end), the set frameRange
	// selects from a sorted series. Anything else is dropped after
	// validation, which is what bounds the arena.
	if t >= sd.start && t < sd.end {
		sd.store(m)
		sd.d.met.streamHighwater.Set(float64(sd.n))
		return nil, nil
	}
	if t < sd.end {
		return nil, nil
	}
	sd.ended = true
	if !sd.decoded && !sd.deferred && sd.n > 0 {
		if err := sd.decode(false); err != nil {
			return nil, sd.fail(err)
		}
		return sd.emitted, nil
	}
	return nil, nil
}

// Flush closes the stream and returns the decode Result. If the frame had
// not closed yet (the trace ended inside it), whatever arrived is decoded
// now — the truncated-trace path the batch wrappers rely on — and so is a
// DecodeAtFlush frame. Flush is idempotent; Push is invalid afterwards.
func (sd *StreamDecoder) Flush() (*Result, error) {
	if sd.err != nil {
		return nil, sd.err
	}
	if sd.closed {
		return sd.res, nil
	}
	sd.closed = true
	if sd.ack && !sd.acked {
		if err := sd.checkAck(); err != nil {
			return nil, sd.fail(err)
		}
	}
	if !sd.decoded {
		if sd.n == 0 {
			return nil, sd.fail(ErrNoMeasurements)
		}
		if err := sd.decode(!sd.ended); err != nil {
			return nil, sd.fail(err)
		}
	}
	return sd.res, nil
}

// pushAll drives the stream over a whole series: check the series (see
// checkSeries), size the arena once for the frame's sorted range of
// measurements, push every measurement, then flush. Push and the batch
// wrappers share one timestamp contract — non-decreasing, equal
// timestamps legal — matching what csi.Series.Append documents for the
// capture side.
func (sd *StreamDecoder) pushAll(s *csi.Series) (*Result, error) {
	if err := checkSeries(s); err != nil {
		return nil, err
	}
	lo, hi := frameMeasurements(s.Measurements, sd.start, sd.end)
	sd.frameLen = hi - lo
	for _, m := range s.Measurements {
		if _, err := sd.Push(m); err != nil {
			return nil, err
		}
	}
	return sd.Flush()
}

// fail poisons the stream and releases the arena.
func (sd *StreamDecoder) fail(err error) error {
	sd.err = err
	sd.release()
	return err
}

// checkShape validates a measurement against the stream's shape (learned
// from the first push), so store can never index out of range. An RSSI
// stream learns its antennas from the RSSI entries, so a capture that
// carries no CSI rows at all decodes the same as one that does.
func (sd *StreamDecoder) checkShape(m csi.Measurement) error {
	if !sd.shaped {
		sd.ants, sd.rows = len(m.CSI), len(m.CSI)
		if sd.mode == StreamRSSI && sd.rows == 0 {
			sd.ants = len(m.RSSI)
		}
		if sd.rows > 0 {
			sd.subs = len(m.CSI[0])
		}
	}
	if len(m.CSI) != sd.rows || len(m.RSSI) != sd.ants {
		return fmt.Errorf("uplink: push %d has %d CSI rows and %d RSSI entries, want %d and %d",
			sd.pushes, len(m.CSI), len(m.RSSI), sd.rows, sd.ants)
	}
	for a, row := range m.CSI {
		if len(row) != sd.subs {
			return fmt.Errorf("uplink: push %d antenna %d has %d sub-channels, want %d",
				sd.pushes, a, len(row), sd.subs)
		}
	}
	if !sd.shaped {
		sd.shaped = true
		if sd.single && (sd.antenna >= sd.ants || sd.subchannel >= sd.subs) {
			return fmt.Errorf("uplink: stream channel (%d, %d) out of range (%d antennas, %d sub-channels)",
				sd.antenna, sd.subchannel, sd.ants, sd.subs)
		}
	}
	return nil
}

// nchan returns the number of channel lanes the mode scans.
func (sd *StreamDecoder) nchan() int {
	switch {
	case sd.single:
		return 1
	case sd.mode == StreamRSSI:
		return sd.ants
	default:
		return sd.ants * sd.subs
	}
}

// laneID names channel lane i.
func (sd *StreamDecoder) laneID(i int) ChannelID {
	switch {
	case sd.single:
		return ChannelID{sd.antenna, sd.subchannel}
	case sd.mode == StreamRSSI:
		return ChannelID{i, -1}
	default:
		return ChannelID{i / sd.subs, i % sd.subs}
	}
}

// decode runs the pipeline over the buffered frame, once per stream. It
// is the only decode implementation in the package; every entry point
// reaches it, and it runs the same five stages for all of them:
//
//	bin → condition+score each lane → select top-G → combine → decide
//
// The stream's stage choices (Variant, code pair) swap the rule inside a
// stage, never the order of the float operations: the paper variant is
// DecodeCSI bit for bit, and the golden traces and pinned benchmark
// digests hold every other entry point to fixed bits. The stages work in
// one pooled frameScratch, so the frame close allocates only what it
// hands back: the Result with its Payload and Good, the emitted bits, and
// the ranking sort's closure. The fault seam (Decoder.Impair, in lane
// order) and the channel counters belong to decode, not to the stages,
// which the preamble detectors share.
func (sd *StreamDecoder) decode(atFlush bool) error {
	sd.decoded = true
	fs := getScratch(sd.nchan(), sd.n, sd.nbits)
	defer putScratch(fs)
	stats := sd.analyze(fs)
	sel, err := sd.selectTop(stats)
	sd.d.met.channelsAnalyzed.Add(int64(len(stats)))
	sd.d.met.channelsRejected.Add(int64(len(stats) - len(sel)))
	var res *Result
	switch {
	case err != nil:
	case sd.code0 != nil:
		// Code correlation decides from per-chip means; nothing to combine.
		res = sd.decideCodes(sel, fs.off)
	default:
		clear(fs.combined)
		sd.combine(fs.combined, sel)
		res = sd.decide(fs.combined, sel, fs.off)
	}
	sd.release()
	if err != nil {
		return err
	}
	sd.res = res
	sd.emitted = make([]BitDecision, len(res.Payload))
	for i, bit := range res.Payload {
		sd.emitted[i] = BitDecision{Index: i, Bit: bit, Measurements: sd.bitMeasurements(fs.off, i)}
	}
	sd.d.met.streamBitsEmitted.Add(int64(len(sd.emitted)))
	if atFlush {
		sd.d.met.streamFlushBits.Add(int64(len(sd.emitted)))
	}
	return nil
}

// frameScratch is the frame close's working memory, taken from
// scratchStash for one decode: the bin boundaries, every lane's
// conditioned series, the per-lane bin means and occupancy, one
// conditioning prefix row per lane chunk, the lane stats the ranking
// sorts, and the combined series. The lanes' cond, means and ok and the
// chunks' prefix rows are slices of one block each, so a frame close
// costs the same handful of allocations whatever its channel count.
type frameScratch struct {
	off      []int     // bin j is samples [off[j], off[j+1])
	cond     []float64 // lane i at [i·n, (i+1)·n)
	means    []float64 // lane i at [i·nbits, (i+1)·nbits)
	ok       []bool    // laid out like means
	prefix   []float64 // chunk c's row at [c·(n+1), (c+1)·(n+1))
	stats    []channelStats
	combined []float64
	chunks   int                     // lane chunks split runs, one prefix row each
	split    parallel.Split[laneJob] // fans the lanes out over the cores
}

// lane returns lane i's views for frames of n samples over nbits bins:
// its conditioned series, bin means and bin occupancy.
func (fs *frameScratch) lane(i, n, nbits int) (cond, means []float64, ok []bool) {
	return fs.cond[i*n : (i+1)*n], fs.means[i*nbits : (i+1)*nbits], fs.ok[i*nbits : (i+1)*nbits]
}

// prefixRow returns lane chunk c's conditioning prefix row for frames of
// n samples. The lanes of one chunk run one after another, so they share
// it; its contents are stale, which the conditioning kernel allows.
func (fs *frameScratch) prefixRow(c, n int) []float64 {
	return fs.prefix[c*(n+1) : (c+1)*(n+1)]
}

// scratchStash recycles frameScratch across decodes and streams.
var scratchStash stash[frameScratch]

// getScratch returns a frame scratch sized for nchan lanes of n samples
// over nbits bins, cut into one lane chunk per core. Contents are stale:
// every stage overwrites what it reads (decode clears combined before
// summing into it).
func getScratch(nchan, n, nbits int) *frameScratch {
	fs := scratchStash.get()
	if fs == nil {
		fs = new(frameScratch)
	}
	fs.chunks = min(runtime.GOMAXPROCS(0), nchan)
	fs.off = resize(fs.off, nbits+1)
	fs.cond = resize(fs.cond, nchan*n)
	fs.means = resize(fs.means, nchan*nbits)
	fs.ok = resize(fs.ok, nchan*nbits)
	fs.prefix = resize(fs.prefix, fs.chunks*(n+1))
	fs.stats = resize(fs.stats, nchan)
	fs.combined = resize(fs.combined, n)
	return fs
}

// putScratch returns fs to the stash, dropping the stats' views so a
// scratch that later regrows does not pin its old blocks.
func putScratch(fs *frameScratch) {
	clear(fs.stats)
	scratchStash.put(fs)
}

// resize returns s with length n, reallocating only when its capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bin is the first stage: it splits the frame's measurements into frame
// bins by timestamp (§3.2), or by arrival count for the equal-count
// ablation, writing the nbits+1 bin boundaries into off.
func (sd *StreamDecoder) bin(off []int) {
	ts := sd.times()
	if sd.v.Binning == BinEqualCount {
		binEqualCount(off, ts, sd.start, sd.d.cfg.BitDuration)
		return
	}
	binByTimestamp(off, ts, sd.start, sd.d.cfg.BitDuration)
}

// analyze runs the stages up to the ranking over the closed frame: it
// bins the frame, hands each lane to the fault seam (Decoder.Impair,
// serially and in lane order, so its draws do not depend on the fan-out
// after it), then conditions and scores every lane.
func (sd *StreamDecoder) analyze(fs *frameScratch) []channelStats {
	sd.bin(fs.off)
	if imp := sd.d.Impair; imp != nil {
		for i := range sd.nchan() {
			imp.ImpairChannel(sd.laneID(i), sd.times(), sd.lane(i))
		}
	}
	return sd.scoreLanes(fs)
}

// scoreLanes conditions and scores every channel lane. The lanes are
// independent, so it fans them out in contiguous chunks over the cores
// (parallel.Split, which joins them before it returns). A lane writes only
// its own stats, cond, means and ok slots, and reads nothing another lane
// writes, so the stats are the serial loop's bit for bit at any core
// count. The score is the magnitude of the preamble correlation, or for
// long range the code discriminability.
func (sd *StreamDecoder) scoreLanes(fs *frameScratch) []channelStats {
	fs.split.Run(sd.nchan(), fs.chunks, sd.laneJob(fs), scoreLaneRange)
	return fs.stats
}

// laneJob is one fan-out over a frame's lanes: the stream whose arena
// holds them, the scratch they write into, and the conditioning window in
// samples.
type laneJob struct {
	sd     *StreamDecoder
	fs     *frameScratch
	window int
}

func (sd *StreamDecoder) laneJob(fs *frameScratch) laneJob {
	return laneJob{sd: sd, fs: fs, window: windowSamples(sd.times(), sd.d.cfg.windowFor())}
}

// scoreLaneRange is scoreLanes over lanes [lo, hi), chunk c, in lane
// order.
func scoreLaneRange(j laneJob, c, lo, hi int) {
	sd, fs, n := j.sd, j.fs, j.sd.n
	prefix := fs.prefixRow(c, n)
	for i := lo; i < hi; i++ {
		cond, means, ok := fs.lane(i, n, sd.nbits)
		fs.stats[i] = analyzeChannel(sd.laneID(i), sd.lane(i), cond, prefix, fs.off, j.window, means, ok)
		if sd.code0 != nil {
			fs.stats[i].score = sd.codeScore(&fs.stats[i])
		}
	}
}

// selectTop ranks the lanes and keeps the top G (§3.2 step 2a):
// GoodSubchannels of them, or just the best one for RSSI (§3.3), a
// single-channel stream, and the best-single ablation.
func (sd *StreamDecoder) selectTop(stats []channelStats) ([]channelStats, error) {
	if err := rankLanes(stats); err != nil {
		return nil, err
	}
	g := sd.d.cfg.GoodSubchannels
	if sd.mode == StreamRSSI || sd.v.Combining == CombineBestSingle {
		g = 1
	}
	return stats[:min(g, len(stats))], nil
}

// rankLanes sorts the lanes by score, best first, for selectTop and the
// preamble detectors' rank test.
func rankLanes(stats []channelStats) error {
	if len(stats) == 0 {
		return fmt.Errorf("uplink: no channels to combine")
	}
	//wblint:ignore HP002 the comparator runs once per frame close, not per push; sort.Slice's unstable tie order is pinned by the golden traces
	sort.Slice(stats, func(i, j int) bool { //wblint:ignore HP001 boxing the slice header is once per frame close, not per push; see the HP002 reason above
		return stats[i].score > stats[j].score
	})
	return nil
}

// combine adds the selected channels into dst: y_t = Σ w_i·c_i(t), with
// the MRC weight w_i = sign_i/σ_i² (§3.2 step 2b), or sign_i alone for
// the equal-gain ablation.
func (sd *StreamDecoder) combine(dst []float64, sel []channelStats) {
	for _, st := range sel {
		w := st.sign / st.variance
		if sd.v.Combining == CombineEqualGain {
			w = st.sign
		}
		for t, v := range st.cond {
			dst[t] += w * v
		}
	}
}

// decide turns the combined series into payload bits: hysteresis then a
// majority vote per bit (§3.2 step 3), a plain majority vote of the
// combined samples' signs, or the sign of each bit's mean.
func (sd *StreamDecoder) decide(combined []float64, sel []channelStats, off []int) *Result {
	mean := sd.v.Decision == DecideBitMean
	if !mean && sd.v.Decision != DecidePlainVote {
		sd.hysteresis(combined)
	}
	payload := make([]bool, sd.payloadLen)
	for b := range payload {
		bin := combined[off[13+b]:off[14+b]]
		if mean {
			var sum float64
			for _, v := range bin {
				sum += v
			}
			payload[b] = sum > 0
			continue
		}
		pos := 0
		for _, v := range bin {
			if v > 0 {
				pos++
			}
		}
		payload[b] = pos*2 > len(bin)
	}
	return sd.result(payload, sel, off)
}

// hysteresis replaces each combined sample with its ±1 comparator
// decision. The thresholds are µ ± σ/2 of the combined series (§3.2). The
// scale estimator is the mean absolute deviation: for the bimodal ±A
// series it gives ~A (a dead zone of ±A/2, as intended), it stays
// centered between the lobes even for unbalanced payloads (unlike the
// median), and heavy-tailed spurious CSI jumps inflate it only linearly
// (unlike the standard deviation).
func (sd *StreamDecoder) hysteresis(combined []float64) {
	hyst := dsp.NewHysteresis(dsp.Mean(combined), dsp.MeanAbsDev(combined))
	var flips int64
	prev := 0
	for t, v := range combined {
		cur := -1
		if hyst.Update(v) {
			cur = 1
		}
		if t > 0 && cur != prev {
			flips++
		}
		combined[t] = float64(cur)
		prev = cur
	}
	sd.d.met.bitsFlipped.Add(flips)
}

// result wraps a decided payload in a Result and ticks the per-decode
// metrics; every decide stage ends here.
func (sd *StreamDecoder) result(payload []bool, sel []channelStats, off []int) *Result {
	var measured float64
	var empty int64
	for b := range payload {
		n := sd.bitMeasurements(off, b)
		if n == 0 {
			empty++
		}
		measured += float64(n)
	}
	res := &Result{
		Payload:             payload,
		Good:                make([]ChannelID, 0, len(sel)),
		PreambleCorrelation: math.Abs(sel[0].corr),
		MeasurementsPerBit:  measured / float64(len(payload)),
	}
	for _, st := range sel {
		res.Good = append(res.Good, st.id)
	}
	m := &sd.d.met
	m.decodes.Inc()
	m.channelsSelected.Add(int64(len(sel)))
	m.bitsDecoded.Add(int64(len(payload)))
	m.emptyBins.Add(empty)
	m.corr.Observe(res.PreambleCorrelation)
	m.measPerBit.Observe(res.MeasurementsPerBit)
	return res
}

// bitMeasurements counts the measurements in payload bit b's bins.
func (sd *StreamDecoder) bitMeasurements(off []int, b int) int {
	return off[13+(b+1)*sd.chips] - off[13+b*sd.chips]
}
