package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/uplink"
)

// nonPaperVariants changes one of the paper's three pipeline choices each:
// combining, decision, and binning.
var nonPaperVariants = []uplink.Variant{
	{Combining: uplink.CombineEqualGain},
	{Combining: uplink.CombineBestSingle},
	{Decision: uplink.DecidePlainVote},
	{Decision: uplink.DecideBitMean},
	{Binning: uplink.BinEqualCount},
}

// decodeCall is one batch decode of one capture. run appends a canonical
// encoding of the result to dst.
type decodeCall struct {
	name string
	run  func(dst []byte) ([]byte, error)
}

// decodeMix is decode-frames' fixed mix: for each plain capture,
// DecodeCSI, DecodeRSSI, DecodeVariant for every non-paper variant, and
// DecodeLongRange on one of the coded captures.
func decodeMix(in *inputs) []decodeCall {
	var calls []decodeCall
	for i, c := range in.caps {
		n := c.kind.payloadLen
		calls = append(calls,
			decodeCall{"uplink.batch.decode_csi", func(dst []byte) ([]byte, error) {
				r, err := c.dec.DecodeCSI(&c.series, c.start, n)
				return appendResult(dst, r), err
			}},
			decodeCall{"uplink.batch.decode_rssi", func(dst []byte) ([]byte, error) {
				r, err := c.dec.DecodeRSSI(&c.series, c.start, n)
				return appendResult(dst, r), err
			}})
		for _, v := range nonPaperVariants {
			calls = append(calls, decodeCall{"uplink.batch.decode_variant", func(dst []byte) ([]byte, error) {
				r, err := c.dec.DecodeVariant(&c.series, c.start, n, v)
				return appendResult(dst, r), err
			}})
		}
		lr := in.long[i%len(in.long)]
		calls = append(calls, decodeCall{"uplink.batch.decode_longrange", func(dst []byte) ([]byte, error) {
			r, err := lr.dec.DecodeLongRange(&lr.series, lr.start, lr.kind.payloadLen, lr.code0, lr.code1)
			if err != nil {
				return dst, err
			}
			dst = appendBits(dst, r.Payload)
			for _, m := range r.Margins {
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m))
			}
			return appendChannels(dst, r.Good), nil
		}})
	}
	return calls
}

// appendResult appends a canonical encoding of r: payload, selected
// channels, and the exact bits of its two statistics.
func appendResult(dst []byte, r *uplink.Result) []byte {
	if r == nil {
		return dst
	}
	dst = appendBits(dst, r.Payload)
	dst = appendChannels(dst, r.Good)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.PreambleCorrelation))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(r.MeasurementsPerBit))
}

func appendBits(dst []byte, bits []bool) []byte {
	for _, b := range bits {
		if b {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	}
	return append(dst, '|')
}

func appendChannels(dst []byte, ids []uplink.ChannelID) []byte {
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, uint32(id.Antenna))
		dst = binary.BigEndian.AppendUint32(dst, uint32(id.Subchannel))
	}
	return append(dst, '|')
}

// mixRunner runs decode calls and checks that every call repeats the
// result of its first run.
type mixRunner struct {
	calls []decodeCall
	first [][sha256.Size]byte
	seen  []bool
	buf   []byte
	meter *allocMeter
	// lat collects each call's wall time in ms.
	lat []float64
}

func newMixRunner(in *inputs) *mixRunner {
	calls := decodeMix(in)
	return &mixRunner{calls: calls, first: make([][sha256.Size]byte, len(calls)),
		seen: make([]bool, len(calls)), meter: newAllocMeter()}
}

// run makes call i, tracing it as a child of parent with its allocations.
func (m *mixRunner) run(i int, now func() time.Time, tr *tracer, parent int) error {
	c := m.calls[i]
	var a0 allocCount
	if tr != nil {
		a0 = m.meter.read()
	}
	sp := tr.begin(c.name, parent, int64(i))
	t0 := now()
	out, err := c.run(m.buf[:0])
	d := now().Sub(t0)
	tr.end(sp)
	if tr != nil {
		tr.allocs(sp, m.meter.read().minus(a0))
	}
	m.buf = out
	m.lat = append(m.lat, ms(d))
	if err != nil {
		return fmt.Errorf("%s (call %d): %w", c.name, i, err)
	}
	fp := sha256.Sum256(out)
	if !m.seen[i] {
		m.first[i], m.seen[i] = fp, true
	} else if fp != m.first[i] {
		return fmt.Errorf("%s (call %d): result differs from its first run", c.name, i)
	}
	return nil
}

// digest is the SHA-256 over every call's first result, in mix order.
func (m *mixRunner) digest() string {
	h := sha256.New()
	for _, fp := range m.first {
		h.Write(fp[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measureDecodeFrames runs decode-frames: whole mix cycles on one
// goroutine, no serving, for the budget (at least one cycle).
func measureDecodeFrames(e *env, in *inputs, budget time.Duration, tr *tracer) (*outcome, error) {
	m := newMixRunner(in)
	m.lat = make([]float64, 0, 1<<13)
	o := &outcome{}
	g0 := readGC()
	var elapsed time.Duration
	end := e.now().Add(budget)
	for cycle := 0; cycle == 0 || e.now().Before(end); cycle++ {
		t0 := e.now()
		cyc := tr.begin("decode.cycle", 0, int64(cycle))
		for i := range m.calls {
			o.count(m.run(i, e.now, tr, cyc))
		}
		tr.end(cyc)
		elapsed += e.now().Sub(t0)
	}
	g1 := readGC()
	o.checkDigest(e, "decode-frames", e.seed, m.digest())

	p50, tail := dist("decode_frame", "_ms", "latency", "ms", m.lat)
	p50.speed, tail.speed = perTime, perTime
	perSec := float64(len(m.lat)) / elapsed.Seconds()
	o.primary, o.higherIsBetter = perSec, true
	o.metrics = []metric{p50, tail,
		{name: "decode_frames_per_s", key: "throughput_per_s", value: perSec, unit: "1/s", speed: perRate},
		{name: "alloc_bytes_per_frame", key: "alloc_bytes_per_op", value: perOp(g1.alloc-g0.alloc, len(m.lat)), unit: "B"},
	}
	return o, nil
}
