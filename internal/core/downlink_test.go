package core

import (
	"testing"

	"repro/internal/downlink"
	"repro/internal/reader"
	"repro/internal/units"
	"repro/internal/wifi"
)

func TestDownlinkBERTrialDistanceOrdering(t *testing.T) {
	near, err := DownlinkBERTrial(0.5, 16, 50e-6, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	far, err := DownlinkBERTrial(3.5, 16, 50e-6, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if near > 2 {
		t.Errorf("0.5 m downlink errors = %d/2000, want ~0", near)
	}
	if far <= near {
		t.Errorf("errors should grow with distance: near %d, far %d", near, far)
	}
}

func TestDownlinkBERTrialRateOrdering(t *testing.T) {
	// At 2.9 m, 50 µs bits should fail more than 200 µs bits (Fig. 17).
	fast, err := DownlinkBERTrial(2.9, 16, 50e-6, 4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := DownlinkBERTrial(2.9, 16, 200e-6, 4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if slow >= fast {
		t.Errorf("200 µs bits (%d errors) should beat 50 µs bits (%d)", slow, fast)
	}
}

func TestDownlinkCalibration(t *testing.T) {
	// Pin the paper's headline operating points (§1, Fig. 17):
	// 20 kbps ≈ 1e-2 BER around 2.1 m; 10 kbps still under ~2e-2 at
	// 2.9 m.
	const n = 10000
	at213, err := DownlinkBERTrial(2.13, 16, 50e-6, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	ber := float64(at213) / n
	if ber > 0.03 {
		t.Errorf("20 kbps BER at 2.13 m = %v, want <= ~1e-2", ber)
	}
	at29, err := DownlinkBERTrial(2.9, 16, 100e-6, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	ber = float64(at29) / n
	if ber > 0.02 {
		t.Errorf("10 kbps BER at 2.9 m = %v, want <= ~1e-2", ber)
	}
	// And 20 kbps must be broken well before 4 m.
	at4, err := DownlinkBERTrial(4.0, 16, 50e-6, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	if float64(at4)/n < 0.02 {
		t.Errorf("20 kbps BER at 4 m = %v, should be > 2e-2", float64(at4)/n)
	}
}

func TestDownlinkBERTrialValidation(t *testing.T) {
	if _, err := DownlinkBERTrial(1, 16, 50e-6, 0, 1); err == nil {
		t.Error("zero bits should error")
	}
	if _, err := DownlinkBERTrial(1, 16, 0, 100, 1); err == nil {
		t.Error("zero bit duration should error")
	}
	if _, err := DownlinkBERTrial(1, 16, 0.5e-6, 100, 1); err == nil {
		t.Error("sub-sample bit duration should error")
	}
}

func TestEnvelopeWindowRequiresLog(t *testing.T) {
	sys, _ := NewSystem(Config{Seed: 20})
	if _, err := sys.envelopeWindow(0, 0.01); err == nil {
		t.Error("envelopeWindow without EnableTxLog should error")
	}
}

func TestDownlinkMessageThroughMedium(t *testing.T) {
	// Full path: encoder → CTS_to_SELF + marker packets → envelope →
	// circuit → preamble match → mid-bit sampling → CRC.
	sys, err := NewSystem(Config{Seed: 21, TagReaderDistance: units.Centimeters(50)})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTxLog()
	enc, err := downlink.NewEncoder(50e-6)
	if err != nil {
		t.Fatal(err)
	}
	msg := downlink.NewMessage(0xA5A5_1234_5678)
	chunks := enc.Plan(msg.Bits())
	var winStart float64
	if err := enc.Send(sys.Medium, sys.Reader, chunks, func(_ int, start float64) {
		winStart = start
	}); err != nil {
		t.Fatal(err)
	}
	sys.Run(0.5)
	if winStart == 0 {
		t.Fatal("window never granted")
	}
	res, err := sys.DecodeDownlinkWindow(winStart, chunks[0].Reservation, 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PreambleFound {
		t.Fatal("tag did not find the downlink preamble")
	}
	if res.Err != nil {
		t.Fatalf("tag decode failed: %v", res.Err)
	}
	if res.Message.Data != msg.Data {
		t.Errorf("tag decoded %x, want %x", res.Message.Data, msg.Data)
	}
	if res.Decoder.Wakeups == 0 {
		t.Error("µC wake accounting should be populated")
	}
}

func TestDownlinkMessageWithContention(t *testing.T) {
	// The CTS_to_SELF must protect the message even with a saturated
	// contender on the medium.
	sys, err := NewSystem(Config{Seed: 22, TagReaderDistance: units.Centimeters(50)})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTxLog()
	contender := sys.AddStation("contender", 16, 2.5)
	(&wifi.SaturatedSource{Station: contender, Dst: wifi.MAC{9}, Payload: 1200}).Start()
	enc, _ := downlink.NewEncoder(50e-6)
	msg := downlink.NewMessage(0x0123456789AB)
	chunks := enc.Plan(msg.Bits())
	var winStart float64
	if err := enc.Send(sys.Medium, sys.Reader, chunks, func(_ int, start float64) {
		winStart = start
	}); err != nil {
		t.Fatal(err)
	}
	sys.Run(1.0)
	res, err := sys.DecodeDownlinkWindow(winStart, chunks[0].Reservation, 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("decode under contention failed: %v", res.Err)
	}
	if res.Message.Data != msg.Data {
		t.Errorf("decoded %x, want %x", res.Message.Data, msg.Data)
	}
}

func TestRunQueryRoundTrip(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 23, TagReaderDistance: units.Centimeters(20)})
	if err != nil {
		t.Fatal(err)
	}
	(&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start()
	sys.Run(0.2) // warm up traffic
	q := reader.Query{Command: reader.CmdRead, TagID: 0x0042, BitRate: 100}
	res, err := sys.RunQuery(q, 0xFACE_0FF0_1234, DefaultTransactionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TagDecoded {
		t.Fatal("tag never decoded the query")
	}
	if res.TagHeard != q {
		t.Errorf("tag heard %+v, want %+v", res.TagHeard, q)
	}
	if !res.ResponseOK {
		t.Fatalf("reader failed to decode the response (corr %v, attempts %d)",
			res.ResponseCorrelation, res.Attempts)
	}
	if res.ResponseData != 0xFACE_0FF0_1234&((1<<48)-1) {
		t.Errorf("response data = %x", res.ResponseData)
	}
}

func TestRunQueryValidation(t *testing.T) {
	sys, _ := NewSystem(Config{Seed: 24})
	if _, err := sys.RunQuery(reader.Query{}, 0, DefaultTransactionConfig()); err == nil {
		t.Error("query without a bit rate should error")
	}
	if _, err := sys.RunQuery(reader.Query{BitRate: 100}, 0, TransactionConfig{}); err == nil {
		t.Error("zero transaction config should error")
	}
}

func TestRunQueryRetriesWhenTagFar(t *testing.T) {
	// With the tag far beyond downlink range, every attempt should fail
	// and the retry budget should be consumed.
	sys, err := NewSystem(Config{Seed: 40, TagReaderDistance: 8})
	if err != nil {
		t.Fatal(err)
	}
	(&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start()
	sys.Run(0.2)
	tc := DefaultTransactionConfig()
	tc.MaxAttempts = 3
	tc.ResponseTimeout = 1.0
	q := reader.Query{Command: reader.CmdRead, BitRate: 100}
	res, err := sys.RunQuery(q, 0x1234, tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponseOK {
		t.Fatal("a tag at 8 m should not complete a 20 kbps downlink transaction")
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want all 3 retries consumed", res.Attempts)
	}
}

func TestDownlinkMultiMessageTransfer(t *testing.T) {
	// §4.1: "We can transmit more bits by splitting them across multiple
	// CTS_to_SELF packets" — a long transfer is a sequence of framed
	// 64-bit messages, each in its own reservation, reassembled at the
	// tag.
	sys, err := NewSystem(Config{Seed: 41, TagReaderDistance: units.Centimeters(40)})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTxLog()
	enc, _ := downlink.NewEncoder(50e-6)
	parts := []uint64{0x111122223333, 0x444455556666, 0x7777888899AA}
	var got []uint64
	for i, part := range parts {
		msg := downlink.NewMessage(part)
		chunks := enc.Plan(msg.Bits())
		var winStart float64
		if err := enc.Send(sys.Medium, sys.Reader, chunks, func(_ int, s float64) {
			winStart = s
		}); err != nil {
			t.Fatal(err)
		}
		sys.Run(sys.Eng.Now() + 0.2)
		res, derr := sys.DecodeDownlinkWindow(winStart, chunks[0].Reservation, 50e-6)
		if derr != nil || res.Err != nil {
			t.Fatalf("part %d failed: %v / %v", i, derr, res.Err)
		}
		got = append(got, res.Message.Data)
	}
	for i := range parts {
		if got[i] != parts[i] {
			t.Errorf("part %d = %x, want %x", i, got[i], parts[i])
		}
	}
}
