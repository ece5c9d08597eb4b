package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// Every input a workload feeds the program is generated here, in-process,
// from the run's seed: a capture is one simulated tag transmission
// (core.NewSystem + Run) as the reader measured it, plus its wire encoding
// and the batch decoder's answer for it.

const (
	// helperPPS is the helper's injection rate, the paper's usual
	// 1000 packets/s.
	helperPPS = 1000.0
	// txStart is when the tag starts transmitting: a short idle preroll,
	// which streams validate and drop.
	txStart = 0.2
	// captureTail keeps each capture running past frame end, so the frame
	// closes on a measurement rather than at flush (a frame closed at flush
	// streams no bit lines; see README, serving bugs).
	captureTail = 0.06
)

// captureKind describes one family of generated captures.
type captureKind struct {
	name       string
	mode       uplink.StreamMode
	payloadLen int
	// rate is the tag's bit rate, or its chip rate for coded frames.
	rate float64
	// subchannels overrides the radio's 30 reported sub-channels per
	// antenna when non-zero.
	subchannels int
	// codeLen is the Walsh code length of a long-range frame; 0 for a
	// plain frame.
	codeLen int
	// salt separates the capture seeds of different kinds.
	salt int
}

var (
	// csiKind is the paper's main decode path: 90 payload bits at 100 bps,
	// decoded from 3 antennas × 30 sub-channels of CSI.
	csiKind = captureKind{name: "csi", mode: uplink.StreamCSI, payloadLen: 90, rate: 100}
	// rssiKind is a short RSSI session: 16 bits at 100 bps over 3 antennas
	// × 1 sub-channel (an RSSI session declaring 0 sub-channels is
	// poisoned; see README, serving bugs).
	rssiKind = captureKind{name: "rssi", mode: uplink.StreamRSSI, payloadLen: 16, rate: 100, subchannels: 1, salt: 1000}
	// longKind is a long-range coded frame: 16 bits as Walsh-20 chips at
	// 500 chips/s, two packets per chip.
	longKind = captureKind{name: "longrange", mode: uplink.StreamCSI, payloadLen: 16, rate: 500, codeLen: 20, salt: 2000}
)

// capture is one generated measurement stream and what a workload needs
// to replay and check it.
type capture struct {
	kind   captureKind
	seed   int64
	series csi.Series
	start  float64 // frame start, as the decoder expects it
	// closeAt indexes the frame-closing measurement: the first at or past
	// frame end, where a stream emits the frame's bits.
	closeAt int
	dec     *uplink.Decoder

	// Wire form (plain frames): the hello line, the measurement lines back
	// to back (line i ends at lineEnd[i]), and the session they open.
	params  serve.SessionParams
	hello   []byte
	lines   []byte
	lineEnd []int

	// Reference (plain frames): the batch decode, the bits a stream emits
	// when the frame closes, and the response a server must send after its
	// ok line, byte for byte.
	ref     *uplink.Result
	refBits []uplink.BitDecision
	want    []byte

	// Walsh pair (coded frames).
	code0, code1 []float64
}

// genCapture simulates one capture of kind k. The core.capture span covers
// the simulation (NewSystem + Run) alone.
func genCapture(k captureKind, seed int64, now func() time.Time, tr *tracer) (*capture, error) {
	cfg := core.Config{Seed: seed, TagReaderDistance: units.Centimeters(5)}
	if k.subchannels > 0 {
		ch := radio.DefaultChannelConfig()
		ch.Subchannels = k.subchannels
		cfg.Channel = &ch
	}
	c := &capture{kind: k, seed: seed}
	payload := core.RandomPayload(k.payloadLen, seed+7777)
	frame := tag.FrameBits(payload)
	if k.codeLen > 0 {
		var err error
		if c.code0, c.code1, err = dsp.WalshPair(k.codeLen); err != nil {
			return nil, err
		}
		chips := tag.ExpandWithCodes(payload, c.code0, c.code1)
		frame = make([]bool, 0, len(tag.Preamble)+len(chips)+len(tag.Postamble))
		frame = append(append(append(frame, tag.Preamble...), chips...), tag.Postamble...)
	}
	t0 := now()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	src := &wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{0x02, 0, 0, 0, 0, 9}, Payload: 200, Interval: 1 / helperPPS}
	if err := src.Start(); err != nil {
		return nil, err
	}
	mod, err := sys.TransmitUplink(frame, txStart, k.rate)
	if err != nil {
		return nil, err
	}
	sys.Run(mod.End() + captureTail)
	tr.add("core.capture", 0, seed, t0, now())
	c.series = *sys.Series()
	c.start = mod.Start()
	if c.dec, err = uplink.NewDecoder(uplink.DefaultConfig(1 / k.rate)); err != nil {
		return nil, err
	}
	if k.codeLen > 0 {
		return c, nil
	}
	if err := c.reference(); err != nil {
		return nil, fmt.Errorf("capture %s seed %d: %w", k.name, seed, err)
	}
	c.encode()
	return c, nil
}

// reference decodes the capture in batch and through a stream, and fixes
// the response a server owes a client that replays it.
func (c *capture) reference() error {
	var err error
	if c.kind.mode == uplink.StreamRSSI {
		c.ref, err = c.dec.DecodeRSSI(&c.series, c.start, c.kind.payloadLen)
	} else {
		c.ref, err = c.dec.DecodeCSI(&c.series, c.start, c.kind.payloadLen)
	}
	if err != nil {
		return fmt.Errorf("batch decode: %w", err)
	}
	sd, err := c.dec.NewStream(c.start, c.kind.payloadLen, c.kind.mode)
	if err != nil {
		return err
	}
	c.closeAt = -1
	for i, m := range c.series.Measurements {
		bits, err := sd.Push(m)
		if err != nil {
			return fmt.Errorf("stream decode: %w", err)
		}
		if len(bits) > 0 {
			c.closeAt = i
			c.refBits = append([]uplink.BitDecision(nil), bits...)
		}
	}
	if _, err := sd.Flush(); err != nil {
		return fmt.Errorf("stream flush: %w", err)
	}
	if c.closeAt < 0 {
		return fmt.Errorf("capture ends before its frame closes")
	}
	if !bytes.Equal(bitString(c.refBits), payloadString(c.ref.Payload)) {
		return fmt.Errorf("streamed bits differ from the batch decode")
	}
	for _, b := range c.refBits {
		c.want = appendBitLine(c.want, b)
	}
	c.want = appendDoneLine(c.want, c.ref)
	return nil
}

// encode renders the capture as one wbserve/1 session.
func (c *capture) encode() {
	c.params = serve.SessionParams{
		Mode:        c.kind.mode,
		BitRate:     c.kind.rate,
		Start:       c.start,
		PayloadLen:  c.kind.payloadLen,
		Antennas:    c.series.Antennas(),
		Subchannels: c.series.Subchannels(),
	}
	c.hello = append(serve.AppendHello(nil, c.params), '\n')
	c.lineEnd = make([]int, len(c.series.Measurements))
	for i, m := range c.series.Measurements {
		c.lines = append(serve.AppendMeasurement(c.lines, m), '\n')
		c.lineEnd[i] = len(c.lines)
	}
}

// line returns measurement line i without its newline.
func (c *capture) line(i int) []byte {
	lo := 0
	if i > 0 {
		lo = c.lineEnd[i-1]
	}
	return c.lines[lo : c.lineEnd[i]-1]
}

var flushLine = []byte("flush\n")

// The response lines below follow the wbserve/1 format a server writes
// (see internal/serve/wire.go): integers in decimal, floats in the
// shortest form that round-trips.

func appendBitLine(dst []byte, b uplink.BitDecision) []byte {
	dst = append(dst, "bit "...)
	dst = strconv.AppendInt(dst, int64(b.Index), 10)
	if b.Bit {
		dst = append(dst, " 1 "...)
	} else {
		dst = append(dst, " 0 "...)
	}
	dst = strconv.AppendInt(dst, int64(b.Measurements), 10)
	return append(dst, '\n')
}

func appendDoneLine(dst []byte, r *uplink.Result) []byte {
	dst = append(dst, "done "...)
	if len(r.Payload) == 0 {
		dst = append(dst, '-')
	}
	dst = append(dst, payloadString(r.Payload)...)
	dst = append(dst, " corr="...)
	dst = strconv.AppendFloat(dst, r.PreambleCorrelation, 'g', -1, 64)
	dst = append(dst, " mpb="...)
	dst = strconv.AppendFloat(dst, r.MeasurementsPerBit, 'g', -1, 64)
	return append(dst, '\n')
}

func payloadString(p []bool) []byte {
	out := make([]byte, len(p))
	for i, b := range p {
		out[i] = '0'
		if b {
			out[i] = '1'
		}
	}
	return out
}

func bitString(bits []uplink.BitDecision) []byte {
	out := make([]byte, len(bits))
	for i, b := range bits {
		out[i] = '0'
		if b.Bit {
			out[i] = '1'
		}
	}
	return out
}

// inputs is one workload's generated input set.
type inputs struct {
	caps []*capture // plain frames the workload replays
	long []*capture // long-range coded frames
}

// buildInputs generates nPlain captures of kind plain and nLong long-range
// captures from seed. Capture i of a kind is seeded with
// rng.TrialSeed(seed, kind.salt+i), so the same seed always yields the
// same inputs.
func buildInputs(seed int64, plain captureKind, nPlain, nLong int, now func() time.Time, tr *tracer) (*inputs, error) {
	in := &inputs{}
	for i := 0; i < nPlain; i++ {
		c, err := genCapture(plain, rng.TrialSeed(seed, plain.salt+i), now, tr)
		if err != nil {
			return nil, err
		}
		in.caps = append(in.caps, c)
	}
	for i := 0; i < nLong; i++ {
		c, err := genCapture(longKind, rng.TrialSeed(seed, longKind.salt+i), now, tr)
		if err != nil {
			return nil, err
		}
		in.long = append(in.long, c)
	}
	return in, nil
}
