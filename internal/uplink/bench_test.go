package uplink

import (
	"testing"

	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/tag"
)

// benchSeries builds one reusable synthetic transmission for decoder
// micro-benchmarks.
func benchSeries(tb testing.TB) (*csi.Series, *tag.Modulator, []bool) {
	tb.Helper()
	payload := randomPayload(90, 1)
	mod, err := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := defaultSynth()
	cfg.duration = mod.End() + 0.5
	return synthSeries(cfg, mod, 2), mod, payload
}

func BenchmarkDecodeCSI(b *testing.B) {
	s, mod, _ := benchSeries(b)
	d, _ := NewDecoder(DefaultConfig(0.01))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeCSI(s, mod.Start(), 90); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRSSI(b *testing.B) {
	s, mod, _ := benchSeries(b)
	d, _ := NewDecoder(DefaultConfig(0.01))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeRSSI(s, mod.Start(), 90); err != nil {
			b.Fatal(err)
		}
	}
}

// longRangeBenchSeries builds one reusable 16-bit long-range transmission
// with length-20 Walsh codes (5 ms chips).
func longRangeBenchSeries() (s *csi.Series, mod *tag.Modulator, code0, code1 []float64) {
	payload := randomPayload(16, 3)
	code0, code1, _ = dsp.WalshPair(20)
	chips := tag.ExpandWithCodes(payload, code0, code1)
	frame := append(append(append([]bool{}, tag.Preamble...), chips...), tag.Postamble...)
	mod, _ = tag.NewModulator(frame, 1.0, 0.005)
	cfg := defaultSynth()
	cfg.duration = mod.End() + 0.5
	return synthSeries(cfg, mod, 4), mod, code0, code1
}

func BenchmarkDecodeLongRange(b *testing.B) {
	s, mod, code0, code1 := longRangeBenchSeries()
	d, _ := NewDecoder(DefaultConfig(0.005))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeLongRange(s, mod.Start(), 16, code0, code1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamDecode measures one full streamed decode: N pushes plus
// the frame-close decode, the wbdecode/live-reader hot path. Compare with
// BenchmarkDecodeCSI — the only delta should be per-push call overhead.
func BenchmarkStreamDecode(b *testing.B) {
	s, mod, _ := benchSeries(b)
	d, _ := NewDecoder(DefaultConfig(0.01))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd, err := d.NewStream(mod.Start(), 90, StreamCSI)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range s.Measurements {
			if _, err := sd.Push(m); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sd.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPush isolates the steady-state per-measurement cost: the
// arena is pre-grown by a warm-up pass, so the measured loop is the pure
// buffering path. Run with -benchmem; the contract is 0 allocs/op (pinned
// by TestStreamPushSteadyStateAllocs in stream_alloc_test.go).
func BenchmarkStreamPush(b *testing.B) {
	s, mod, _ := benchSeries(b)
	d, _ := NewDecoder(DefaultConfig(0.01))
	// Keep timestamps strictly inside the frame so no push triggers the
	// decode; recycle through fresh streams as b.N demands.
	var inFrame []csi.Measurement
	sd0, _ := d.NewStream(mod.Start(), 90, StreamCSI)
	for _, m := range s.Measurements {
		if m.Timestamp >= sd0.Start() && m.Timestamp < sd0.End() {
			inFrame = append(inFrame, m)
		}
	}
	if len(inFrame) == 0 {
		b.Fatal("no in-frame measurements")
	}
	// Warm up: one full frame grows the arena and primes the slab pool, so
	// the measured pushes land in recycled buffers.
	sd, _ := d.NewStream(mod.Start(), 90, StreamCSI)
	for _, m := range inFrame {
		if _, err := sd.Push(m); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sd.Flush(); err != nil {
		b.Fatal(err)
	}
	sd, _ = d.NewStream(mod.Start(), 90, StreamCSI)
	i := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i == len(inFrame) {
			// Frame turnover (flush + fresh stream) is off the steady-state
			// path; exclude it so the number is the pure buffering cost.
			b.StopTimer()
			if _, err := sd.Flush(); err != nil {
				b.Fatal(err)
			}
			sd, _ = d.NewStream(mod.Start(), 90, StreamCSI)
			i = 0
			b.StartTimer()
		}
		if _, err := sd.Push(inFrame[i]); err != nil {
			b.Fatal(err)
		}
		i++
	}
	b.StopTimer()
	sd.Flush()
}

// BenchmarkFrameClose times the one Push that closes a frame — the
// frame-global decode every bit waits for — with the pushes that fill a
// fresh stream kept off the clock. Run with -benchmem: allocs/op is the
// frame close's own count, which TestFrameCloseAllocs holds independent of
// the channel count.
func BenchmarkFrameClose(b *testing.B) {
	b.Run("csi", func(b *testing.B) {
		s, mod, _ := benchSeries(b)
		d, _ := NewDecoder(DefaultConfig(0.01))
		benchFrameClose(b, s, func() (*StreamDecoder, error) {
			return d.NewStream(mod.Start(), 90, StreamCSI)
		})
	})
	b.Run("longrange", func(b *testing.B) {
		s, mod, code0, code1 := longRangeBenchSeries()
		d, _ := NewDecoder(DefaultConfig(0.005))
		benchFrameClose(b, s, func() (*StreamDecoder, error) {
			return d.NewLongRangeStream(mod.Start(), 16, code0, code1)
		})
	})
}

// splitAtClose returns the in-frame measurements of s for a stream over
// [start, end) and the first measurement at or past end, whose push closes
// the frame.
func splitAtClose(s *csi.Series, start, end float64) (fill []csi.Measurement, closing csi.Measurement, ok bool) {
	for _, m := range s.Measurements {
		if m.Timestamp >= end {
			return fill, m, true
		}
		if m.Timestamp >= start {
			fill = append(fill, m)
		}
	}
	return fill, closing, false
}

// benchFrameClose measures the closing Push of streams from open.
func benchFrameClose(b *testing.B, s *csi.Series, open func() (*StreamDecoder, error)) {
	sd, err := open()
	if err != nil {
		b.Fatal(err)
	}
	fill, closing, ok := splitAtClose(s, sd.Start(), sd.End())
	if !ok {
		b.Fatal("series ends inside the frame")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if sd, err = open(); err != nil {
			b.Fatal(err)
		}
		for _, m := range fill {
			if _, err := sd.Push(m); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		bits, err := sd.Push(closing)
		if err != nil || len(bits) == 0 {
			b.Fatalf("closing push returned %d bits, error %v", len(bits), err)
		}
	}
}

// BenchmarkFrameStages splits one frame close into its stages (see
// StreamDecoder.decode), each timed alone over one pooled frameScratch:
// a 90-bit frame of 3×30 CSI lanes and the same frame's 3 RSSI lanes.
// condition+score fans the lanes out over GOMAXPROCS as the frame close
// does; condition+score/serial runs all of them on the benchmark's
// goroutine, the kernel's own cost (compare the two at -cpu 1,2).
// The stream holds the filled frame arena throughout. Stages that rewrite
// their input first restore it from a copy, and that copy is timed with
// them: select restores the unsorted lane stats, decide the combined
// series its hysteresis overwrites. Run with -benchmem.
func BenchmarkFrameStages(b *testing.B) {
	for _, mode := range []StreamMode{StreamCSI, StreamRSSI} {
		b.Run(mode.String(), func(b *testing.B) { benchFrameStages(b, mode) })
	}
}

func benchFrameStages(b *testing.B, mode StreamMode) {
	s, mod, _ := benchSeries(b)
	d, _ := NewDecoder(DefaultConfig(0.01))
	sd, err := d.NewStream(mod.Start(), 90, mode)
	if err != nil {
		b.Fatal(err)
	}
	fill, _, ok := splitAtClose(s, sd.Start(), sd.End())
	if !ok {
		b.Fatal("series ends inside the frame")
	}
	for _, m := range fill {
		if _, err := sd.Push(m); err != nil {
			b.Fatal(err)
		}
	}
	defer sd.release()
	fs := getScratch(sd.nchan(), sd.n, sd.nbits)
	defer putScratch(fs)
	// One pass through every stage leaves the inputs each stage needs.
	sd.bin(fs.off)
	unsorted := append([]channelStats(nil), sd.scoreLanes(fs)...)
	sel, err := sd.selectTop(fs.stats)
	if err != nil {
		b.Fatal(err)
	}
	clear(fs.combined)
	sd.combine(fs.combined, sel)
	combined := append([]float64(nil), fs.combined...)

	b.Run("bin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sd.bin(fs.off)
		}
	})
	b.Run("condition+score", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sd.scoreLanes(fs)
		}
	})
	b.Run("condition+score/serial", func(b *testing.B) {
		job := sd.laneJob(fs)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scoreLaneRange(job, 0, sd.nchan())
		}
	})
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(fs.stats, unsorted)
			if _, err := sd.selectTop(fs.stats); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The sub-benchmarks above leave the stats in scan or ranked order,
	// depending on which ran; rank them again so sel is the top lanes.
	copy(fs.stats, unsorted)
	if sel, err = sd.selectTop(fs.stats); err != nil {
		b.Fatal(err)
	}
	b.Run("combine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(fs.combined)
			sd.combine(fs.combined, sel)
		}
	})
	b.Run("decide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(fs.combined, combined)
			sd.decide(fs.combined, sel, fs.off)
		}
	})
}

func BenchmarkDetectAck(b *testing.B) {
	mod, _ := tag.NewModulator(AckBits(), 1.0, 0.01)
	cfg := defaultSynth()
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 5)
	d, _ := NewDecoder(DefaultConfig(0.01))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.DetectAck(s, mod.Start()); err != nil {
			b.Fatal(err)
		}
	}
}
