package uplink

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/csi"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tag"
)

// streamSynth builds the standard synthetic transmission used by the
// stream tests: payload bits, the modulator, and the series.
func streamSynth(t *testing.T, payloadLen int, seed int64) ([]bool, *tag.Modulator, *csi.Series) {
	t.Helper()
	payload := randomPayload(payloadLen, seed)
	mod, err := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultSynth()
	cfg.duration = mod.End() + 0.5
	return payload, mod, synthSeries(cfg, mod, seed+100)
}

// pushSeries feeds every measurement of s, collecting emitted bits.
func pushSeries(t *testing.T, sd *StreamDecoder, s *csi.Series) []BitDecision {
	t.Helper()
	var bits []BitDecision
	for _, m := range s.Measurements {
		out, err := sd.Push(m)
		if err != nil {
			t.Fatalf("Push: %v", err)
		}
		bits = append(bits, out...)
	}
	return bits
}

// TestStreamMatchesBatchUnderRandomTruncation is the chunking-equivalence
// property: Push takes one measurement at a time, so "any chunking" means
// any prefix — pushing the first k measurements then flushing must be
// byte-identical to the batch decode of those same k measurements, for
// every k, including errors. Quick-checked over random cut points and
// seeds for both CSI and RSSI modes.
func TestStreamMatchesBatchUnderRandomTruncation(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		_, mod, s := streamSynth(t, 45, seed)
		d, _ := NewDecoder(DefaultConfig(0.01))
		cut := rng.New(seed + 500)
		cuts := []int{0, 1, s.Len()} // always include the degenerate cuts
		for i := 0; i < 6; i++ {
			cuts = append(cuts, 1+int(cut.Float64()*float64(s.Len()-1)))
		}
		for _, mode := range []StreamMode{StreamCSI, StreamRSSI} {
			for _, k := range cuts {
				trunc := &csi.Series{Measurements: s.Measurements[:k]}
				var batchRes *Result
				var batchErr error
				if mode == StreamRSSI {
					batchRes, batchErr = d.DecodeRSSI(trunc, mod.Start(), 45)
				} else {
					batchRes, batchErr = d.DecodeCSI(trunc, mod.Start(), 45)
				}
				sd, err := d.NewStream(mod.Start(), 45, mode)
				if err != nil {
					t.Fatal(err)
				}
				var emitted []BitDecision
				for _, m := range trunc.Measurements {
					out, perr := sd.Push(m)
					if perr != nil {
						t.Fatalf("seed %d mode %v k=%d: Push: %v", seed, mode, k, perr)
					}
					emitted = append(emitted, out...)
				}
				streamRes, streamErr := sd.Flush()
				if (batchErr == nil) != (streamErr == nil) {
					t.Fatalf("seed %d mode %v k=%d: batch err %v, stream err %v", seed, mode, k, batchErr, streamErr)
				}
				if batchErr != nil {
					if k > 0 && batchErr.Error() != streamErr.Error() {
						t.Errorf("seed %d mode %v k=%d: error mismatch: batch %q, stream %q", seed, mode, k, batchErr, streamErr)
					}
					continue
				}
				if !reflect.DeepEqual(batchRes, streamRes) {
					t.Errorf("seed %d mode %v k=%d: stream result differs from batch:\nbatch:  %+v\nstream: %+v",
						seed, mode, k, batchRes, streamRes)
				}
				// The emitted stream (push-time or flush-time) must spell the
				// same payload.
				all := sd.Bits()
				if len(all) != len(streamRes.Payload) {
					t.Fatalf("seed %d mode %v k=%d: %d bit decisions for %d payload bits", seed, mode, k, len(all), len(streamRes.Payload))
				}
				for i, b := range all {
					if b.Index != i || b.Bit != streamRes.Payload[i] {
						t.Errorf("seed %d mode %v k=%d: bit decision %d = %+v, want payload bit %v", seed, mode, k, i, b, streamRes.Payload[i])
					}
				}
				// When the trace extends past the frame, bits surface at Push
				// time (emitted non-empty); otherwise they surface at Flush.
				if k == s.Len() && len(emitted) != len(streamRes.Payload) {
					t.Errorf("seed %d mode %v: full trace emitted %d bits at push time, want %d", seed, mode, len(emitted), len(streamRes.Payload))
				}
			}
		}
	}
}

// TestStreamSingleChannelMatchesBatch pins the third entry point to the
// same core.
func TestStreamSingleChannelMatchesBatch(t *testing.T) {
	_, mod, s := streamSynth(t, 30, 9)
	d, _ := NewDecoder(DefaultConfig(0.01))
	batch, err := d.DecodeSingleChannel(s, mod.Start(), 30, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := d.NewSingleChannelStream(mod.Start(), 30, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	pushSeries(t, sd, s)
	res, err := sd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, res) {
		t.Errorf("single-channel stream differs from batch:\nbatch:  %+v\nstream: %+v", batch, res)
	}
	if _, err := d.NewSingleChannelStream(mod.Start(), 30, -1, 0); err == nil {
		t.Error("negative antenna should error at construction")
	}
	bad, _ := d.NewSingleChannelStream(mod.Start(), 30, 99, 0)
	if _, err := bad.Push(s.Measurements[0]); err == nil {
		t.Error("out-of-range channel should error at first push")
	}
}

// TestStreamEmitsAtFrameClose pins the latency win over batch: every bit
// is available at the first push past the frame end, not at end of trace.
func TestStreamEmitsAtFrameClose(t *testing.T) {
	payload, mod, s := streamSynth(t, 45, 3)
	d, _ := NewDecoder(DefaultConfig(0.01))
	sd, err := d.NewStream(mod.Start(), 45, StreamCSI)
	if err != nil {
		t.Fatal(err)
	}
	var emittedAt int
	var bits []BitDecision
	for i, m := range s.Measurements {
		out, err := sd.Push(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) > 0 {
			if bits != nil {
				t.Fatal("bits emitted twice")
			}
			bits, emittedAt = out, i
		}
	}
	if bits == nil {
		t.Fatal("no bits emitted before end of trace")
	}
	if ts := s.Measurements[emittedAt].Timestamp; ts < mod.End() {
		t.Errorf("bits emitted at t=%v, before frame end %v", ts, mod.End())
	}
	if emittedAt == s.Len()-1 {
		t.Error("bits only emitted on the last measurement; no latency win over batch")
	}
	if !sd.Done() {
		t.Error("Done() false after emission")
	}
	got := make([]bool, len(bits))
	for i, b := range bits {
		got[i] = b.Bit
	}
	if errs := countBitErrors(got, payload); errs != 0 {
		t.Errorf("streamed decode produced %d bit errors on a clean link", errs)
	}
}

// streamErrorFixture returns a fresh-stream constructor for the error
// tests, the decoder behind it, and the first two measurements of a
// clean synthetic series.
func streamErrorFixture(t *testing.T) (*Decoder, *tag.Modulator, func() *StreamDecoder, *csi.Series) {
	t.Helper()
	_, mod, s := streamSynth(t, 20, 5)
	d, _ := NewDecoder(DefaultConfig(0.01))
	mk := func() *StreamDecoder {
		sd, err := d.NewStream(mod.Start(), 20, StreamCSI)
		if err != nil {
			t.Fatal(err)
		}
		return sd
	}
	return d, mod, mk, s
}

// TestNewStreamValidation pins construction: a zero payload or an unknown
// mode fails in NewStream rather than at the first Push.
func TestNewStreamValidation(t *testing.T) {
	d, mod, _, _ := streamErrorFixture(t)
	if _, err := d.NewStream(mod.Start(), 0, StreamCSI); err == nil {
		t.Error("zero payload should error")
	}
	if _, err := d.NewStream(mod.Start(), 20, StreamMode(99)); err == nil {
		t.Error("unknown mode should error")
	}
}

// TestStreamFlushWithoutMeasurements pins that an empty stream's Flush is
// ErrNoMeasurements.
func TestStreamFlushWithoutMeasurements(t *testing.T) {
	_, _, mk, _ := streamErrorFixture(t)
	if _, err := mk().Flush(); !errors.Is(err, ErrNoMeasurements) {
		t.Errorf("Flush with nothing pushed returned %v, want ErrNoMeasurements", err)
	}
}

// TestStreamPushErrorIsSticky pins the sticky-error contract: after the
// first failed Push, every later Push and Flush returns that same error
// value, so a caller that only checks Flush still sees it.
func TestStreamPushErrorIsSticky(t *testing.T) {
	_, _, mk, s := streamErrorFixture(t)
	m0, m1 := s.Measurements[0], s.Measurements[1]
	sd := mk()
	if _, err := sd.Push(m1); err != nil {
		t.Fatal(err)
	}
	_, first := sd.Push(m0)
	if first == nil {
		t.Fatal("out-of-order push should error")
	}
	if _, err := sd.Push(m1); err != first {
		t.Errorf("push after a failure returned %v, want the first error %v", err, first)
	}
	if _, err := sd.Flush(); err != first {
		t.Errorf("Flush on a poisoned stream returned %v, want the first error %v", err, first)
	}
}

// TestStreamPushErrors pins the input contract past construction:
// backwards and NaN timestamps, shape drift and use-after-Flush all
// return errors (and poison the stream) rather than panicking.
func TestStreamPushErrors(t *testing.T) {
	_, _, mk, s := streamErrorFixture(t)
	m0, m1 := s.Measurements[0], s.Measurements[1]

	sd := mk()
	if _, err := sd.Push(m1); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Push(m0); err == nil {
		t.Error("out-of-order push should error")
	}

	sd = mk()
	bad := m0
	bad.Timestamp = math.NaN()
	if _, err := sd.Push(bad); err == nil {
		t.Error("NaN timestamp should error")
	}

	sd = mk()
	if _, err := sd.Push(m0); err != nil {
		t.Fatal(err)
	}
	misshapen := csi.Measurement{Timestamp: m1.Timestamp, CSI: [][]float64{{1, 2}}, RSSI: []float64{1}}
	if _, err := sd.Push(misshapen); err == nil {
		t.Error("shape drift should error")
	}

	sd = mk()
	pushSeries(t, sd, s)
	if _, err := sd.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Push(m1); err == nil {
		t.Error("Push after Flush should error")
	}
	// Flush stays idempotent after success.
	if res, err := sd.Flush(); err != nil || res == nil {
		t.Errorf("second Flush: res=%v err=%v", res, err)
	}
}

// TestStreamEqualTimestamps is the regression test for the contract
// mismatch at the stream seam: csi.Series.Append documents non-decreasing
// (equal legal) timestamps, and Push must accept the same series the
// batch wrappers accept — including duplicates landing exactly on the
// frame-end boundary — and decode it byte-identically.
func TestStreamEqualTimestamps(t *testing.T) {
	_, mod, s := streamSynth(t, 20, 9)
	d, _ := NewDecoder(DefaultConfig(0.01))

	// Duplicate every 7th measurement, plus the first one at or past the
	// frame end (the push that closes the frame), plus the final one.
	dup := &csi.Series{}
	closed := false
	for _, m := range s.Measurements {
		dup.Append(m)
		if len(dup.Measurements)%7 == 0 {
			dup.Append(m)
		}
		if !closed && m.Timestamp >= mod.End() {
			dup.Append(m) // equal timestamp at the frame-close boundary
			closed = true
		}
	}
	dup.Append(dup.Measurements[dup.Len()-1])

	batch, err := d.DecodeCSI(dup, mod.Start(), 20)
	if err != nil {
		t.Fatalf("batch decode of an equal-timestamp series: %v", err)
	}

	sd, err := d.NewStream(mod.Start(), 20, StreamCSI)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []BitDecision
	for i, m := range dup.Measurements {
		out, err := sd.Push(m)
		if err != nil {
			t.Fatalf("Push %d (ts=%v) rejected an equal timestamp: %v", i, m.Timestamp, err)
		}
		emitted = append(emitted, out...)
	}
	res, err := sd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, batch) {
		t.Errorf("stream result differs from batch on an equal-timestamp series:\nstream: %+v\nbatch:  %+v", res, batch)
	}
	if len(emitted) != 20 {
		t.Errorf("frame with duplicated boundary timestamp emitted %d bits, want 20", len(emitted))
	}
}

// TestStreamMemoryBounded pins the memory contract: the arena holds only
// in-frame measurements, so a long trace does not grow it, and the decode
// releases it.
func TestStreamMemoryBounded(t *testing.T) {
	_, mod, s := streamSynth(t, 20, 6)
	d, _ := NewDecoder(DefaultConfig(0.01))
	sd, err := d.NewStream(mod.Start(), 20, StreamCSI)
	if err != nil {
		t.Fatal(err)
	}
	inFrame := 0
	for _, m := range s.Measurements {
		if m.Timestamp >= sd.Start() && m.Timestamp < sd.End() {
			inFrame++
		}
	}
	high := 0
	for _, m := range s.Measurements {
		if _, err := sd.Push(m); err != nil {
			t.Fatal(err)
		}
		if sd.Buffered() > high {
			high = sd.Buffered()
		}
	}
	if high != inFrame {
		t.Errorf("arena high-water %d, want the in-frame count %d", high, inFrame)
	}
	if sd.Buffered() != 0 {
		t.Errorf("arena not released after decode: %d buffered", sd.Buffered())
	}
}

// TestStreamMetrics pins the stream metric names and their accounting on
// a frame that closes mid-trace (flush_bits stays zero) and on a
// truncated trace (flush_bits counts the late bits).
func TestStreamMetrics(t *testing.T) {
	_, mod, s := streamSynth(t, 20, 7)
	reg := obs.NewRegistry()
	d, _ := NewDecoder(DefaultConfig(0.01))
	d.Instrument(reg)

	sd, _ := d.NewStream(mod.Start(), 20, StreamCSI)
	pushSeries(t, sd, s)
	if _, err := sd.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("uplink.stream.pushes").Value(); got != int64(s.Len()) {
		t.Errorf("stream.pushes = %d, want %d", got, s.Len())
	}
	if got := reg.Counter("uplink.stream.bits_emitted").Value(); got != 20 {
		t.Errorf("stream.bits_emitted = %d, want 20", got)
	}
	if got := reg.Counter("uplink.stream.flush_bits").Value(); got != 0 {
		t.Errorf("stream.flush_bits = %d, want 0 (frame closed mid-trace)", got)
	}
	if reg.Gauge("uplink.stream.buffer_highwater").Max() <= 0 {
		t.Error("stream.buffer_highwater never rose")
	}

	// Truncate the trace inside the frame: the bits only exist at Flush.
	cutAt := 0
	for i, m := range s.Measurements {
		if m.Timestamp >= mod.End()-0.05 {
			cutAt = i
			break
		}
	}
	trunc := &csi.Series{Measurements: s.Measurements[:cutAt]}
	sd, _ = d.NewStream(mod.Start(), 20, StreamCSI)
	pushSeries(t, sd, trunc)
	if _, err := sd.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("uplink.stream.flush_bits").Value(); got != 20 {
		t.Errorf("stream.flush_bits = %d after truncated flush, want 20", got)
	}
}

func TestParseStreamModeInvertsString(t *testing.T) {
	for _, mode := range []StreamMode{StreamCSI, StreamRSSI} {
		if got, err := ParseStreamMode(mode.String()); err != nil || got != mode {
			t.Errorf("ParseStreamMode(%q) = %v, %v; want %v", mode.String(), got, err, mode)
		}
	}
	if _, err := ParseStreamMode("fsk"); err == nil {
		t.Error("unknown mode parsed")
	}
}
