package uplink

import (
	"fmt"
	"testing"

	"repro/internal/csi"
	"repro/internal/tag"
)

func TestAckBitsMatchPreamble(t *testing.T) {
	bits := AckBits()
	if len(bits) != 13 {
		t.Fatalf("ACK burst = %d bits, want 13", len(bits))
	}
	for i, b := range tag.Preamble {
		if bits[i] != b {
			t.Fatalf("ACK bit %d differs from the preamble", i)
		}
	}
}

func TestDetectAckPresent(t *testing.T) {
	const bitDur = 0.01
	mod, err := tag.NewModulator(AckBits(), 1.0, bitDur)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultSynth()
	cfg.duration = mod.End() + 1.0
	s := synthSeries(cfg, mod, 3)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	ok, corr, err := d.DetectAck(s, mod.Start())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("ACK not detected (corr %v)", corr)
	}
}

func TestDetectAckAbsent(t *testing.T) {
	// No transmission at all: detection must not fire.
	const bitDur = 0.01
	mod, _ := tag.NewModulator(AckBits(), 100.0, bitDur) // far in the future
	cfg := defaultSynth()
	cfg.duration = 3
	s := synthSeries(cfg, mod, 4)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	ok, _, err := d.DetectAck(s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("ACK detected in pure noise")
	}
}

func TestDetectAckFalsePositiveRate(t *testing.T) {
	// Across many noise-only windows, detections should be rare.
	const bitDur = 0.01
	mod, _ := tag.NewModulator(AckBits(), 1000.0, bitDur)
	cfg := defaultSynth()
	cfg.duration = 12
	s := synthSeries(cfg, mod, 5)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	fires := 0
	const windows = 60
	for i := 0; i < windows; i++ {
		ok, _, err := d.DetectAck(s, 1.0+float64(i)*0.15)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fires++
		}
	}
	if fires > 3 {
		t.Errorf("ACK false positives: %d/%d windows", fires, windows)
	}
}

func TestDetectAckEmptySeries(t *testing.T) {
	d, _ := NewDecoder(DefaultConfig(0.01))
	if _, _, err := d.DetectAck(&csi.Series{}, 0); err == nil {
		t.Error("empty series should error")
	}
}

func TestDetectAckTooFewMeasurements(t *testing.T) {
	const bitDur = 0.01
	mod, _ := tag.NewModulator(AckBits(), 1.0, bitDur)
	cfg := defaultSynth()
	cfg.pktRate = 100 // ~1 measurement per bit: under the 13 needed
	cfg.duration = 2
	s := synthSeries(cfg, mod, 6)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	ok, _, err := d.DetectAck(s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	_ = ok // sparse coverage may or may not detect; it must not panic
}

// TestDetectorsRejectMalformedSeries holds both detectors to DecodeCSI's
// errors on series whose channels cannot be read: an RSSI-only capture
// with no CSI rows, one measurement with a short CSI row (outside the
// scanned windows: the whole series is checked), and a capture whose CSI
// rows are empty, which has no channels to score.
func TestDetectorsRejectMalformedSeries(t *testing.T) {
	const bitDur = 0.01
	mod, _ := tag.NewModulator(AckBits(), 1.0, bitDur)
	cfg := defaultSynth()
	cfg.duration = 2
	s := synthSeries(cfg, mod, 3)
	rssiOnly, shortRow, emptyRows := &csi.Series{}, &csi.Series{}, &csi.Series{}
	for i, m := range s.Measurements {
		rssiOnly.Append(csi.Measurement{Timestamp: m.Timestamp, RSSI: m.RSSI})
		emptyRows.Append(csi.Measurement{Timestamp: m.Timestamp, CSI: make([][]float64, len(m.RSSI)), RSSI: m.RSSI})
		if i == 1500 {
			m.CSI = [][]float64{m.CSI[0], m.CSI[1][:5], m.CSI[2]}
		}
		shortRow.Append(m)
	}
	d, _ := NewDecoder(DefaultConfig(bitDur))
	detectors := []struct {
		name string
		run  func(*csi.Series) error
	}{
		{"DetectAck", func(s *csi.Series) error {
			_, _, err := d.DetectAck(s, mod.Start())
			return err
		}},
		{"FindTransmission", func(s *csi.Series) error {
			_, _, err := d.FindTransmission(s, 0.9, 1.1)
			return err
		}},
	}
	for _, in := range []struct {
		name string
		s    *csi.Series
		want string
	}{
		{"rssi-only", rssiOnly, "csi: measurement 0 has 0 CSI rows and 3 RSSI entries, want 0 of each"},
		{"short-row", shortRow, "csi: measurement 1500 antenna 1 has 5 sub-channels, want 30"},
		{"empty-rows", emptyRows, "uplink: no channels to combine"},
	} {
		_, decErr := d.DecodeCSI(in.s, mod.Start(), 1)
		if fmt.Sprint(decErr) != in.want {
			t.Fatalf("%s: DecodeCSI error %v, want %q", in.name, decErr, in.want)
		}
		for _, det := range detectors {
			if err := det.run(in.s); fmt.Sprint(err) != in.want {
				t.Errorf("%s on %s: error %v, want DecodeCSI's %q", det.name, in.name, err, in.want)
			}
		}
	}
}
