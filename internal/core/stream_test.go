package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/csi"
	"repro/internal/faults"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// streamTrial is one 100 bps frame sent over CBR helper traffic with a
// CSI stream opened for it. inFrame collects copies of the in-frame
// reports that reached the stream, in capture order.
type streamTrial struct {
	sys     *System
	sd      *uplink.StreamDecoder
	end     float64
	inFrame []csi.Measurement
}

func newStreamTrial(t *testing.T, cfg Config) *streamTrial {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := startHelperTraffic(sys, UplinkTrialSpec{Config: cfg, HelperPacketsPerSecond: 1000}); err != nil {
		t.Fatal(err)
	}
	mod, err := sys.TransmitUplink(tag.FrameBits(RandomPayload(40, cfg.Seed)), 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sys.UplinkDecoder(100)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream(mod.Start(), 40, uplink.StreamCSI)
	if err != nil {
		t.Fatal(err)
	}
	return &streamTrial{sys: sys, sd: sd, end: mod.End()}
}

func (tr *streamTrial) record(m csi.Measurement) {
	if m.Timestamp < tr.sd.Start() || m.Timestamp >= tr.sd.End() {
		return
	}
	c := csi.Measurement{Timestamp: m.Timestamp, RSSI: append([]float64(nil), m.RSSI...)}
	for _, row := range m.CSI {
		c.CSI = append(c.CSI, append([]float64(nil), row...))
	}
	tr.inFrame = append(tr.inFrame, c)
}

func sameMeasurement(a, b csi.Measurement) bool {
	if math.Float64bits(a.Timestamp) != math.Float64bits(b.Timestamp) ||
		len(a.CSI) != len(b.CSI) || !sameFloatBits(a.RSSI, b.RSSI) {
		return false
	}
	for i := range a.CSI {
		if !sameFloatBits(a.CSI[i], b.CSI[i]) {
			return false
		}
	}
	return true
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStreamToMatchesSeriesTwin is the oracle for StreamTo's skip path.
// One system streams to its decoder and is its only consumer, so it
// evaluates only the in-frame captures; its twin keeps a series and feeds
// an identical stream from an OnMeasurement hook, so it evaluates every
// capture. Clean and under every fault profile, the two must push the
// same in-frame reports bit for bit, decode the same frame, and end with
// the same metrics snapshot and fault tally.
func TestStreamToMatchesSeriesTwin(t *testing.T) {
	profiles := append([]string{""}, faults.ProfileNames()...)
	for _, name := range profiles {
		cfg := Config{Seed: 5, TagReaderDistance: units.Centimeters(20)}
		if name != "" {
			sched, err := faults.Profile(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = sched
		}
		streamed, twin := newStreamTrial(t, cfg), newStreamTrial(t, cfg)

		streamed.sys.StreamTo(streamed.sd)
		// A medium listener added after NewSystem's runs after the
		// capture: a push that counted delivered the reused report.
		pushes := streamed.sys.Metrics().Counter("uplink.stream.pushes")
		var seen int64
		streamed.sys.Medium.AddListener(func(*wifi.Transmission) {
			if n := pushes.Value(); n != seen {
				seen = n
				streamed.record(streamed.sys.report)
			}
		})
		twin.sys.OnMeasurement(func(m csi.Measurement) {
			twin.record(m)
			_, _ = twin.sd.Push(m)
		})
		for _, tr := range []*streamTrial{streamed, twin} {
			tr.sys.Run(tr.end + 0.5)
		}

		if streamed.sys.Series().Len() != 0 || twin.sys.Series().Len() == 0 {
			t.Fatalf("%q: series of %d and %d measurements; the streamed system must keep none",
				name, streamed.sys.Series().Len(), twin.sys.Series().Len())
		}
		// A stall profile can starve the frame: then both streams get
		// nothing in it and fail the same flush.
		if len(streamed.inFrame) != len(twin.inFrame) || (name == "" && len(twin.inFrame) == 0) {
			t.Fatalf("%q: %d in-frame reports streamed, %d from the twin", name, len(streamed.inFrame), len(twin.inFrame))
		}
		for i := range twin.inFrame {
			if !sameMeasurement(streamed.inFrame[i], twin.inFrame[i]) {
				t.Fatalf("%q: in-frame report %d differs:\n%+v\ntwin %+v", name, i, streamed.inFrame[i], twin.inFrame[i])
			}
		}
		got, gerr := streamed.sd.Flush()
		want, werr := twin.sd.Flush()
		switch {
		case (gerr == nil) != (werr == nil):
			t.Fatalf("%q: flush error %v, twin %v", name, gerr, werr)
		case gerr == nil && (!reflect.DeepEqual(got.Payload, want.Payload) || !reflect.DeepEqual(got.Good, want.Good) ||
			math.Float64bits(got.PreambleCorrelation) != math.Float64bits(want.PreambleCorrelation)):
			t.Errorf("%q: decoded %v (corr %v), twin %v (corr %v)", name,
				got.Payload, got.PreambleCorrelation, want.Payload, want.PreambleCorrelation)
		}
		if g, w := streamed.sys.Metrics().Snapshot(), twin.sys.Metrics().Snapshot(); !reflect.DeepEqual(g, w) {
			t.Errorf("%q: metrics snapshot differs from the twin:\n%+v\n%+v", name, g, w)
		}
		if g, w := streamed.sys.FaultInjector().Tally(), twin.sys.FaultInjector().Tally(); g != w {
			t.Errorf("%q: fault tally %+v, twin %+v", name, g, w)
		}
		if name == "" {
			// The captures after the frame went unevaluated: the reused
			// report carries the last one's timestamp and still holds the
			// last in-frame report's values.
			last := streamed.inFrame[len(streamed.inFrame)-1]
			r := streamed.sys.report
			if r.Timestamp < streamed.sd.End() || !sameFloatBits(r.RSSI, last.RSSI) {
				t.Errorf("tail captures were evaluated: last report at %v with RSSI %v, last in-frame %v",
					r.Timestamp, r.RSSI, last.RSSI)
			}
		}
	}
}

// TestStreamToEvaluatesWithHook pins the consumer rule: once a hook is
// registered, every capture reaches it evaluated, as on a system that
// keeps a series.
func TestStreamToEvaluatesWithHook(t *testing.T) {
	cfg := Config{Seed: 6, TagReaderDistance: units.Centimeters(20)}
	streamed, twin := newStreamTrial(t, cfg), newStreamTrial(t, cfg)
	streamed.sys.StreamTo(streamed.sd)
	var got []csi.Measurement
	streamed.sys.OnMeasurement(func(m csi.Measurement) {
		c := m
		c.RSSI = append([]float64(nil), m.RSSI...)
		c.CSI = nil
		got = append(got, c)
	})
	streamed.sys.Run(streamed.end + 0.5)
	twin.sys.Run(twin.end + 0.5)
	want := twin.sys.Series().Measurements
	if len(got) != len(want) {
		t.Fatalf("hook saw %d captures, twin series has %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Timestamp) != math.Float64bits(want[i].Timestamp) || !sameFloatBits(got[i].RSSI, want[i].RSSI) {
			t.Fatalf("capture %d: %v %v, twin %v %v", i, got[i].Timestamp, got[i].RSSI, want[i].Timestamp, want[i].RSSI)
		}
	}
}
