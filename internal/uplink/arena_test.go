package uplink

import (
	"testing"

	"repro/internal/csi"
	"repro/internal/tag"
)

// aliasBytes is the address distance at which two lanes' writes fall into
// the same L1 cache set.
const aliasBytes = 4096

// TestArenaStrideRule holds the stride functions to the layout rule for
// every lane capacity up to 9000 samples, at the lane counts of a 3×30 CSI
// stream (91 with the timestamps), a 3-antenna RSSI stream, a 30-channel
// one and a single-channel stream: the requested stride holds the
// capacity, the stride fitted to the slab getSlab returns for it is no
// narrower and fits, and neither is a multiple of 4 KiB.
func TestArenaStrideRule(t *testing.T) {
	for _, lanes := range []int{91, 4, 31, 2} {
		for c := 1; c <= 9000; c++ {
			want := laneStride(c)
			if want < c || want%lineFloats != 0 || want*8%aliasBytes == 0 {
				t.Fatalf("laneStride(%d) = %d", c, want)
			}
			_, size := slabClass(lanes * want)
			got := fitStride(size, lanes)
			if got < want || lanes*got > size || got%lineFloats != 0 || got*8%aliasBytes == 0 {
				t.Fatalf("%d lanes of %d samples: fitStride(%d) = %d, want at least %d, a multiple of %d floats, not of %d bytes",
					lanes, c, size, got, want, lineFloats, aliasBytes)
			}
		}
	}
}

// TestSlabClass holds the size classes to their contract for every request
// up to 2^17 floats: a class's slabs hold the request and waste under a
// quarter of their size, a slab of exactly a class's size is in that class,
// and a larger class never has smaller slabs, so getSlab's upward search
// only finds slabs that fit.
func TestSlabClass(t *testing.T) {
	lastClass, lastSize := 0, 0
	for n := 16; n <= 1<<17; n++ {
		class, size := slabClass(n)
		if size < n || 4*(size-n) >= size {
			t.Fatalf("slabClass(%d) size %d", n, size)
		}
		if c, s := slabClass(size); c != class || s != size {
			t.Fatalf("a slab of %d floats is in class %d of %d, want class %d", size, c, s, class)
		}
		if class < lastClass || class == lastClass && size != lastSize || class > lastClass && size <= lastSize {
			t.Fatalf("slabClass(%d) = %d, %d after class %d of %d", n, class, size, lastClass, lastSize)
		}
		lastClass, lastSize = class, size
	}
}

// checkStride fails the test when sd's lane stride is a multiple of 4 KiB
// or narrower than what it holds.
func checkStride(t *testing.T, what string, sd *StreamDecoder) {
	t.Helper()
	if sd.stride*8%aliasBytes == 0 || sd.stride < sd.n {
		t.Fatalf("%s: lane stride %d floats (%d bytes) holding %d samples", what, sd.stride, sd.stride*8, sd.n)
	}
}

// denseSeries returns a 3×30 capture at 8000 packets/s around a 45-bit
// frame, so a frame holds more than 4096 measurements.
func denseSeries(t *testing.T) (*csi.Series, *tag.Modulator) {
	t.Helper()
	mod, err := tag.NewModulator(tag.FrameBits(randomPayload(45, 11)), 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultSynth()
	cfg.pktRate = 8000
	cfg.duration = mod.End() + 0.05
	return synthSeries(cfg, mod, 12), mod
}

// TestArenaStrideNotAliased checks real arenas: the stride of a pushed
// stream after every store, at 3×30 and 3×1 CSI and at a frame of more
// than 4096 measurements, and of a presized window over that frame.
func TestArenaStrideNotAliased(t *testing.T) {
	payload := randomPayload(45, 11)
	mod, err := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dense, denseMod := denseSeries(t)
	cases := []struct {
		name  string
		s     *csi.Series
		start float64
	}{
		{"3x30", nil, mod.Start()},
		{"3x1", nil, mod.Start()},
		{"3x30 dense", dense, denseMod.Start()},
	}
	for i, shape := range [][2]int{{3, 30}, {3, 1}} {
		cfg := defaultSynth()
		cfg.antennas, cfg.subchannels = shape[0], shape[1]
		cfg.duration = mod.End() + 0.5
		cases[i].s = synthSeries(cfg, mod, 12)
	}
	d, _ := NewDecoder(DefaultConfig(0.01))
	for _, tc := range cases {
		sd, err := d.NewStream(tc.start, len(payload), StreamCSI)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range tc.s.Measurements {
			if m.Timestamp >= sd.End() {
				break
			}
			if _, err := sd.Push(m); err != nil {
				t.Fatal(err)
			}
			if sd.n > 0 {
				checkStride(t, tc.name, sd)
			}
		}
		t.Logf("%s: %d measurements, stride %d floats after %d reserves", tc.name, sd.n, sd.stride, sd.reserves)
		if tc.s == dense && sd.n < 4096 {
			t.Fatalf("dense frame holds only %d measurements", sd.n)
		}
		sd.release()
	}
	win := d.newWindow(dense, denseMod.Start(), denseMod.End())
	defer win.release()
	if win.n < 4096 {
		t.Fatalf("dense window holds only %d measurements", win.n)
	}
	checkStride(t, "dense window", win)
}

// inFrame counts the measurements of s timestamped in [from, to).
func inFrame(s *csi.Series, from, to float64) int {
	n := 0
	for _, m := range s.Measurements {
		if m.Timestamp >= from && m.Timestamp < to {
			n++
		}
	}
	return n
}

// TestBatchArenaSizedOnce holds every batch entry point and the preamble
// detectors' window to one slab per frame: pushAll (the body of DecodeCSI,
// DecodeRSSI, DecodeSingleChannel, DecodeVariant and DecodeLongRange) and
// newWindow size the arena for exactly the frame's measurements before the
// first store and never grow it, whatever slabs the pool holds.
func TestBatchArenaSizedOnce(t *testing.T) {
	s, mod, payload := benchSeries(t)
	lr, lrMod, code0, code1 := longRangeBenchSeries()
	d, _ := NewDecoder(DefaultConfig(0.01))
	lrd, _ := NewDecoder(DefaultConfig(0.005))
	dense, denseMod := denseSeries(t)
	n := len(payload)
	cases := []struct {
		name string
		s    *csi.Series
		open func() (*StreamDecoder, error)
	}{
		{"DecodeCSI", s, func() (*StreamDecoder, error) { return d.NewStream(mod.Start(), n, StreamCSI) }},
		{"DecodeRSSI", s, func() (*StreamDecoder, error) { return d.NewStream(mod.Start(), n, StreamRSSI) }},
		{"DecodeSingleChannel", s, func() (*StreamDecoder, error) { return d.NewSingleChannelStream(mod.Start(), n, 2, 7) }},
		{"DecodeVariant", s, func() (*StreamDecoder, error) {
			return d.NewVariantStream(mod.Start(), n, Variant{Binning: BinEqualCount})
		}},
		{"DecodeLongRange", lr, func() (*StreamDecoder, error) { return lrd.NewLongRangeStream(lrMod.Start(), 16, code0, code1) }},
		{"DecodeCSI dense", dense, func() (*StreamDecoder, error) { return d.NewStream(denseMod.Start(), 45, StreamCSI) }},
	}
	for _, tc := range cases {
		sd, err := tc.open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sd.pushAll(tc.s); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := inFrame(tc.s, sd.Start(), sd.End())
		if sd.frameLen != want || sd.reserves != 1 {
			t.Errorf("%s: the arena was sized for %d measurements and took %d slabs, want %d in 1", tc.name, sd.frameLen, sd.reserves, want)
		}
	}

	ack, _ := tag.NewModulator(AckBits(), 1.0, 0.01)
	cfg := defaultSynth()
	cfg.duration = 2
	as := synthSeries(cfg, ack, 5)
	win := d.newWindow(as, ack.Start(), ack.End())
	defer win.release()
	if want := inFrame(as, ack.Start(), ack.End()); win.n != want || win.frameLen != want || win.reserves != 1 {
		t.Errorf("DetectAck window: %d measurements, sized for %d in %d slabs, want %d in 1", win.n, win.frameLen, win.reserves, want)
	}
}

// TestArenaLanesHoldPushes pushes a frame's measurements one at a time,
// moving the arena to another slab every 100 pushes, and checks that the
// timestamp lane and every channel lane hold exactly what was pushed, in
// CSI, RSSI and single-channel streams.
func TestArenaLanesHoldPushes(t *testing.T) {
	s, mod, payload := benchSeries(t)
	d, _ := NewDecoder(DefaultConfig(0.01))
	csiStream, _ := d.NewStream(mod.Start(), len(payload), StreamCSI)
	rssiStream, _ := d.NewStream(mod.Start(), len(payload), StreamRSSI)
	single, _ := d.NewSingleChannelStream(mod.Start(), len(payload), 1, 17)
	streams := []*StreamDecoder{csiStream, rssiStream, single}
	var fill []csi.Measurement
	for _, m := range s.Measurements {
		if m.Timestamp >= csiStream.End() {
			break
		}
		for _, sd := range streams {
			if _, err := sd.Push(m); err != nil {
				t.Fatal(err)
			}
			if sd.n > 0 && sd.n%100 == 0 {
				sd.reserve(sd.n + 1)
			}
		}
		if m.Timestamp >= csiStream.Start() {
			fill = append(fill, m)
		}
	}
	want := func(sd *StreamDecoder, c int, m csi.Measurement) float64 {
		switch {
		case sd.single:
			return m.CSI[sd.antenna][sd.subchannel]
		case sd.mode == StreamRSSI:
			return m.RSSI[c]
		default:
			return m.CSI[c/sd.subs][c%sd.subs]
		}
	}
	for _, sd := range streams {
		if sd.n != len(fill) || sd.reserves <= len(fill)/100 {
			t.Fatalf("%v stream: %d measurements in %d slabs, want %d in more than %d", sd.mode, sd.n, sd.reserves, len(fill), len(fill)/100)
		}
		for i, m := range fill {
			if sd.times()[i] != m.Timestamp {
				t.Fatalf("%v stream: timestamp %d = %v, want %v", sd.mode, i, sd.times()[i], m.Timestamp)
			}
			for c := range sd.nchan() {
				if got := sd.lane(c)[i]; got != want(sd, c, m) {
					t.Fatalf("%v stream (single %v): lane %d sample %d = %v, want %v", sd.mode, sd.single, c, i, got, want(sd, c, m))
				}
			}
		}
		sd.release()
	}
}
