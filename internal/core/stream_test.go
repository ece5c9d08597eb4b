package core

import (
	"fmt"
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
	tr.inFrame = append(tr.inFrame, copyMeasurement(m))
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

// TestStreamToMatchesBatchDecode runs the online decode path end to end:
// a stream subscribed with StreamTo decodes during the simulation, and
// its result must be byte-identical to the batch decode of the series an
// OnMeasurement hook recorded, the system-level form of the
// stream/batch equivalence property.
func TestStreamToMatchesBatchDecode(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start(); err != nil {
		t.Fatal(err)
	}
	payload := RandomPayload(45, 71)
	mod, err := sys.TransmitUplink(tag.FrameBits(payload), 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sys.UplinkDecoder(100)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream(mod.Start(), 45, uplink.StreamCSI)
	if err != nil {
		t.Fatal(err)
	}
	sys.StreamTo(sd)
	var recorded csi.Series
	sys.OnMeasurement(func(m csi.Measurement) { recorded.Append(m.Clone()) })
	sys.Run(mod.End() + 0.5)

	// The sim ran past the frame end, so the payload decoded online,
	// before the run finished.
	if !sd.Done() {
		t.Fatal("frame did not close during the run")
	}
	if len(sd.Bits()) != 45 {
		t.Fatalf("stream emitted %d bits, want 45", len(sd.Bits()))
	}
	live, err := sd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dec.DecodeCSI(&recorded, mod.Start(), 45)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, batch) {
		t.Errorf("online decode differs from batch:\nonline: %+v\nbatch:  %+v", live, batch)
	}
	if errs := CountBitErrors(live.Payload, payload); errs != 0 {
		t.Errorf("online decode produced %d bit errors at 5 cm", errs)
	}
}

// twinStreams opens, on one system's decoders, the windows
// TestStreamsMatchSeriesTwin subscribes: the frame sent from 1 s, a
// window overlapping its second half that decodes at Flush, an ACK window
// on its preamble, and a single-channel window at 2.2 s, past the frame,
// that is subscribed during Run.
func twinStreams(t *testing.T, sys *System) (early []*uplink.StreamDecoder, late *uplink.StreamDecoder) {
	t.Helper()
	dec, err := sys.UplinkDecoder(100)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := dec.NewStream(1.0, 40, uplink.StreamCSI)
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := dec.NewStream(1.3, 20, uplink.StreamCSI)
	if err != nil {
		t.Fatal(err)
	}
	overlap.DecodeAtFlush()
	late, err = dec.NewSingleChannelStream(2.2, 10, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return []*uplink.StreamDecoder{frame, overlap, dec.NewAckStream(1.0)}, late
}

// TestStreamsMatchSeriesTwin extends TestStreamToMatchesSeriesTwin to
// several streams: overlapping windows, one subscribed mid-Run for a
// window that starts later, and captures outside every window (before
// 1 s, between the frame and the late window, and after it), which the
// streamed system does not evaluate. Its twin keeps a series and feeds
// identical streams from a hook, each from the moment it is subscribed on
// the streamed system until it closes. Clean and under every fault
// profile, the in-window reports, every stream's outcome, the metrics
// snapshot and the fault tally must match.
func TestStreamsMatchSeriesTwin(t *testing.T) {
	profiles := append([]string{""}, faults.ProfileNames()...)
	for _, name := range profiles {
		cfg := Config{Seed: 7, TagReaderDistance: units.Centimeters(20)}
		if name != "" {
			sched, err := faults.Profile(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = sched
		}
		streamed, twin := newStreamTrial(t, cfg), newStreamTrial(t, cfg)
		sEarly, sLate := twinStreams(t, streamed.sys)
		tEarly, tLate := twinStreams(t, twin.sys)
		all := append(append([]*uplink.StreamDecoder(nil), sEarly...), sLate)
		inWindow := func(at float64) bool {
			for _, sd := range all {
				if at >= sd.Start() && at < sd.End() {
					return true
				}
			}
			return false
		}
		for _, sd := range sEarly {
			streamed.sys.StreamTo(sd)
		}
		streamed.sys.Eng.ScheduleAt(1.9, func() { streamed.sys.StreamTo(sLate) })
		pushes := streamed.sys.Metrics().Counter("uplink.stream.pushes")
		var seen int64
		var got, want []csi.Measurement
		streamed.sys.Medium.AddListener(func(*wifi.Transmission) {
			if n := pushes.Value(); n != seen {
				seen = n
				if r := streamed.sys.report; inWindow(r.Timestamp) {
					got = append(got, copyMeasurement(r))
				}
			}
		})
		subscribed := append([]*uplink.StreamDecoder(nil), tEarly...)
		twin.sys.Eng.ScheduleAt(1.9, func() { subscribed = append(subscribed, tLate) })
		twin.sys.OnMeasurement(func(m csi.Measurement) {
			if inWindow(m.Timestamp) {
				want = append(want, copyMeasurement(m))
			}
			for _, sd := range subscribed {
				if !sd.Closed() {
					_, _ = sd.Push(m)
				}
			}
		})
		streamed.sys.Run(3)
		twin.sys.Run(3)

		if streamed.sys.Series().Len() != 0 || twin.sys.Series().Len() == 0 {
			t.Fatalf("%q: series of %d and %d measurements; the streamed system must keep none",
				name, streamed.sys.Series().Len(), twin.sys.Series().Len())
		}
		if len(got) != len(want) || (name == "" && len(want) == 0) {
			t.Fatalf("%q: %d in-window reports streamed, %d from the twin", name, len(got), len(want))
		}
		for i := range want {
			if !sameMeasurement(got[i], want[i]) {
				t.Fatalf("%q: in-window report %d differs:\n%+v\ntwin %+v", name, i, got[i], want[i])
			}
		}
		for i, sd := range append(sEarly, sLate) {
			tsd := append(tEarly, tLate)[i]
			if i == 2 {
				gok, gbest, gerr := sd.FlushAck()
				wok, wbest, werr := tsd.FlushAck()
				if gok != wok || math.Float64bits(gbest) != math.Float64bits(wbest) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Errorf("%q: ACK window (%v, %v, %v), twin (%v, %v, %v)", name, gok, gbest, gerr, wok, wbest, werr)
				}
				continue
			}
			g, gerr := sd.Flush()
			w, werr := tsd.Flush()
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || (gerr == nil && !reflect.DeepEqual(g, w)) {
				t.Errorf("%q: stream %d decoded %+v (%v), twin %+v (%v)", name, i, g, gerr, w, werr)
			}
		}
		if g, w := streamed.sys.Metrics().Snapshot(), twin.sys.Metrics().Snapshot(); !reflect.DeepEqual(g, w) {
			t.Errorf("%q: metrics snapshot differs from the twin:\n%+v\n%+v", name, g, w)
		}
		if g, w := streamed.sys.FaultInjector().Tally(), twin.sys.FaultInjector().Tally(); g != w {
			t.Errorf("%q: fault tally %+v, twin %+v", name, g, w)
		}
		if name == "" {
			// The captures after the late window went unevaluated: the
			// reused report carries the last one's timestamp but the last
			// in-window report's values.
			last, r := got[len(got)-1], streamed.sys.report
			if r.Timestamp < sLate.End() || !sameFloatBits(r.RSSI, last.RSSI) {
				t.Errorf("captures past every window were evaluated: last report at %v with RSSI %v, last in-window %v",
					r.Timestamp, r.RSSI, last.RSSI)
			}
		}
	}
}

// copyMeasurement returns a deep copy of m.
func copyMeasurement(m csi.Measurement) csi.Measurement {
	c := csi.Measurement{Timestamp: m.Timestamp, RSSI: append([]float64(nil), m.RSSI...)}
	for _, row := range m.CSI {
		c.CSI = append(c.CSI, append([]float64(nil), row...))
	}
	return c
}

// TestAckStreamMatchesDetectAck holds NewAckStream, fed by a system that
// streams, to batch DetectAck over its series-keeping twin: on a present
// burst, an idle window, and a window too short for 13 measurements
// (a 2000 bps burst over 1000 packets a second), clean and under the
// chaos fault profile.
func TestAckStreamMatchesDetectAck(t *testing.T) {
	for _, name := range []string{"", "chaos"} {
		cfg := Config{Seed: 8, TagReaderDistance: units.Centimeters(15)}
		if name != "" {
			sched, err := faults.Profile(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = sched
		}
		type window struct {
			what  string
			rate  float64
			start float64
		}
		windows := []window{{"present", 100, 1.0}, {"idle", 100, 1.6}, {"too few", 2000, 1.0}}
		systems := [2]*System{}
		var streams []*uplink.StreamDecoder
		var decs []*uplink.Decoder
		for i := range systems {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := startHelperTraffic(sys, UplinkTrialSpec{Config: cfg, HelperPacketsPerSecond: 1000}); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.TransmitUplink(uplink.AckBits(), 1.0, 100); err != nil {
				t.Fatal(err)
			}
			for _, w := range windows {
				dec, err := sys.UplinkDecoder(w.rate)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					sd := dec.NewAckStream(w.start)
					sys.StreamTo(sd)
					streams = append(streams, sd)
				} else {
					decs = append(decs, dec)
				}
			}
			sys.Run(2.5)
			systems[i] = sys
		}
		for i, w := range windows {
			gok, gbest, gerr := streams[i].FlushAck()
			wok, wbest, werr := decs[i].DetectAck(systems[1].Series(), w.start)
			if gerr != nil || werr != nil {
				t.Fatalf("%q %s: errors %v, batch %v", name, w.what, gerr, werr)
			}
			if gok != wok || math.Float64bits(gbest) != math.Float64bits(wbest) {
				t.Errorf("%q %s: stream (%v, %v), batch DetectAck (%v, %v)", name, w.what, gok, gbest, wok, wbest)
			}
			switch {
			case name == "" && w.what == "present" && !gok:
				t.Errorf("clean burst not detected (best %v)", gbest)
			case w.what == "idle" && gok:
				t.Errorf("%q: idle window detected (best %v)", name, gbest)
			case w.what == "too few" && (gok || gbest != 0):
				t.Errorf("%q: a window of too few measurements scored (%v, %v)", name, gok, gbest)
			}
		}
		if g, w := systems[0].FaultInjector().Tally(), systems[1].FaultInjector().Tally(); g != w {
			t.Errorf("%q: fault tally %+v, batch twin %+v", name, g, w)
		}
	}
}
