package capture

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wifi"
)

func sampleRecord(seq uint16) *Record {
	return &Record{
		Start:    1.5,
		End:      1.5006,
		Rate:     wifi.Rate54,
		Collided: seq%3 == 0,
		Lost:     seq%5 == 0,
		Frame: wifi.Frame{
			Header: wifi.Header{
				Type:  wifi.TypeData,
				Addr1: wifi.MAC{1, 2, 3, 4, 5, 6},
				Seq:   seq,
			},
			Payload: []byte("payload"),
		},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := uint16(0); i < 10; i++ {
		if err := w.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 10 {
		t.Errorf("count = %d", w.Count())
	}
	recs, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("read %d records", len(recs))
	}
	for i, r := range recs {
		want := sampleRecord(uint16(i))
		if r.Start != want.Start || r.End != want.End || r.Rate != want.Rate ||
			r.Collided != want.Collided || r.Lost != want.Lost {
			t.Errorf("record %d metadata mismatch: %+v", i, r)
		}
		if r.Frame.Header.Seq != uint16(i) {
			t.Errorf("record %d seq = %d", i, r.Frame.Header.Seq)
		}
		if string(r.Frame.Payload) != "payload" {
			t.Errorf("record %d payload = %q", i, r.Frame.Payload)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(start float64, dur uint16, payload []byte, seq uint16) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		rec := &Record{
			Start: start,
			End:   start + float64(dur)*1e-6,
			Rate:  wifi.Rate24,
			Frame: wifi.Frame{Header: wifi.Header{Type: wifi.TypeData, Seq: seq}, Payload: payload},
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(rec); err != nil {
			return false
		}
		got, err := NewReader(&buf).Next()
		if err != nil {
			return false
		}
		return got.Start == rec.Start && got.End == rec.End &&
			got.Frame.Header.Seq == seq && bytes.Equal(got.Frame.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("empty trace read %d records", len(recs))
	}
}

func TestBadMagic(t *testing.T) {
	buf := bytes.NewBufferString("NOPE0000")
	if _, err := NewReader(buf).Next(); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	buf.Write([]byte{0xFF, 0x00, 0, 0})
	if _, err := NewReader(&buf).Next(); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r := NewReader(bytes.NewReader(data[:len(data)-3]))
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated record err = %v, want a real error", err)
	}
}

func TestCorruptedFrameFCS(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-5] ^= 0xFF // corrupt inside the frame body
	if _, err := NewReader(bytes.NewReader(data)).Next(); err == nil {
		t.Error("corrupted frame should fail FCS validation")
	}
}

func TestOversizedLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The length field sits at offset 8 (header) + 18.
	data[8+18] = 0xFF
	data[8+19] = 0xFF
	data[8+20] = 0xFF
	data[8+21] = 0x7F
	if _, err := NewReader(bytes.NewReader(data)).Next(); err == nil {
		t.Error("oversized length should be rejected")
	}
}

func TestAttachCapturesMediumTraffic(t *testing.T) {
	eng := sim.NewEngine()
	m := wifi.NewMedium(eng, rng.New(1))
	st := m.AddStation("s", wifi.MAC{1}, wifi.Rate54)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	aw := w.Attach(m)
	(&wifi.CBRSource{Station: st, Dst: wifi.MAC{2}, Payload: 100, Interval: 0.002}).Start()
	eng.Run(1)
	if aw.Err() != nil {
		t.Fatal(aw.Err())
	}
	recs, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 400 {
		t.Fatalf("captured %d records, want ~500", len(recs))
	}
	stats := Summarize(recs)
	if stats.Records != len(recs) || stats.Bytes == 0 || stats.AirTime <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.ByType[wifi.TypeData] != len(recs) {
		t.Errorf("expected all data frames: %v", stats.ByType)
	}
	u := stats.Utilization()
	if u <= 0 || u >= 1 {
		t.Errorf("utilization = %v", u)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Records != 0 || s.Utilization() != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

// TestSharedTrafficBodiesStayZero runs a capture round trip over traffic
// from every source. Each source's frames share one zeroed body (see
// wifi.Frame.Payload); capturing and decoding the trace must leave those
// bodies all zero, because Reader decodes into fresh records.
func TestSharedTrafficBodiesStayZero(t *testing.T) {
	eng := sim.NewEngine()
	m := wifi.NewMedium(eng, rng.New(1))
	ap := m.AddStation("ap", wifi.MAC{1}, wifi.Rate54)
	sta := m.AddStation("sta", wifi.MAC{2}, wifi.Rate54)
	other := m.AddStation("other", wifi.MAC{3}, wifi.Rate24)
	// Distinct sizes, so each size names one source's body.
	sizes := map[int]string{100: "cbr", 200: "saturated", 300: "poisson", 400: "bursty", 1448: "tcp segment", 52: "tcp ack", 80: "beacon"}
	bodies := map[int]map[*byte][]byte{} // size → backing array → body
	m.AddListener(func(tx wifi.Transmission) {
		p := tx.Frame.Payload
		if len(p) == 0 || sizes[len(p)] == "" {
			return
		}
		if cap(p) != len(p) {
			t.Errorf("%s body: cap %d, len %d", sizes[len(p)], cap(p), len(p))
		}
		if bodies[len(p)] == nil {
			bodies[len(p)] = map[*byte][]byte{}
		}
		bodies[len(p)][&p[0]] = p
		for _, b := range p {
			if b != 0 {
				t.Fatalf("%s body is not zero before capture", sizes[len(p)])
			}
		}
	})
	var buf bytes.Buffer
	aw := NewWriter(&buf).Attach(m)
	const until = 0.3
	cbr := &wifi.CBRSource{Station: other, Dst: wifi.MAC{9}, Payload: 100, Interval: 0.01, Until: until}
	sat := &wifi.SaturatedSource{Station: other, Dst: wifi.MAC{9}, Payload: 200, Depth: 1}
	poisson := &wifi.PoissonSource{Station: other, Dst: wifi.MAC{9}, Payload: 300, Rate: 100, Until: until, Rnd: rng.New(2)}
	bursty := &wifi.BurstySource{Station: other, Dst: wifi.MAC{9}, Payload: 400, MeanBurst: 4, MeanGap: 0.02,
		InBurstInterval: 0.001, Until: until, Rnd: rng.New(3)}
	tcp := &wifi.TCPSource{Sender: ap, Receiver: sta, Until: until, Rnd: rng.New(4)}
	beacon := &wifi.BeaconSource{Station: ap, Interval: 0.02, Until: until}
	for _, start := range []func() error{cbr.Start, sat.Start, poisson.Start, bursty.Start, tcp.Start, beacon.Start} {
		if err := start(); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(until)
	if aw.Err() != nil {
		t.Fatal(aw.Err())
	}
	recs, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("captured nothing")
	}
	for size, name := range sizes {
		seen := bodies[size]
		if len(seen) != 1 {
			t.Errorf("%s frames carried %d distinct bodies, want 1 shared body", name, len(seen))
		}
		for _, body := range seen {
			for i, b := range body {
				if b != 0 {
					t.Fatalf("%s body byte %d is %#x after the capture round trip", name, i, b)
				}
			}
		}
	}
}
