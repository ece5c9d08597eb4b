//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; this assertion only runs in the plain test pass (the
// Makefile's `test` and `bench-stream` targets, not `race`).

package uplink

import (
	"runtime"
	"testing"

	"repro/internal/csi"
	"repro/internal/tag"
)

// TestStreamPushSteadyStateAllocs pins the ISSUE's memory contract: once
// the frame arena has grown to size, Push is allocation-free. The arena
// grows geometrically (pooled, doubling), so after warming up with most
// of the frame its capacity covers the rest; the measured pushes are the
// pure store-into-pre-grown-arena path.
func TestStreamPushSteadyStateAllocs(t *testing.T) {
	payload := randomPayload(45, 11)
	mod, err := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultSynth()
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 12)
	d, _ := NewDecoder(DefaultConfig(0.01))

	sd, err := d.NewStream(mod.Start(), 45, StreamCSI)
	if err != nil {
		t.Fatal(err)
	}
	var inFrame []csi.Measurement
	for _, m := range s.Measurements {
		if m.Timestamp >= sd.Start() && m.Timestamp < sd.End() {
			inFrame = append(inFrame, m)
		}
	}
	const runs = 100
	// AllocsPerRun calls the closure runs+1 times; keep that many pushes
	// in reserve and warm up with everything before them.
	tail := runs + 1
	if len(inFrame) < 2*tail {
		t.Fatalf("only %d in-frame measurements; synth config too short for the test", len(inFrame))
	}
	warm := inFrame[:len(inFrame)-tail]
	for _, m := range warm {
		if _, err := sd.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	// The arena doubles, so capacity after warm-up is at least the next
	// power of two past len(warm) >= len(inFrame): the tail pushes below
	// cannot trigger another grow.
	i := len(warm)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := sd.Push(inFrame[i]); err != nil {
			t.Fatalf("measured push %d: %v", i, err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Push allocates %.1f times per call, want 0", allocs)
	}
	if sd.Buffered() != len(inFrame) {
		t.Fatalf("buffered %d, want %d", sd.Buffered(), len(inFrame))
	}
}

// frameCloseMaxAllocs is what a frame close allocates: the Result, its
// Payload and Good, the emitted bits, and the ranking sort's boxed slice,
// swapper and comparator. The lane fan-out adds nothing: parallel.Split
// starts its goroutines without allocating once its pooled scratch has
// run one.
const frameCloseMaxAllocs = 7

// TestFrameCloseAllocs pins the frame close's allocations to what it hands
// back: the closing Push of a 3×30 CSI stream allocates at most
// frameCloseMaxAllocs times, and no more often than the same push on a
// 3×1 stream, so nothing the frame close allocates may scale with the
// channel count. Run it at several -cpu values: the lanes fan out over
// GOMAXPROCS.
func TestFrameCloseAllocs(t *testing.T) {
	wide := frameCloseAllocs(t, 3, 30)
	narrow := frameCloseAllocs(t, 3, 1)
	t.Logf("frame-closing Push at GOMAXPROCS=%d: %d allocations at 3×30, %d at 3×1", runtime.GOMAXPROCS(0), wide, narrow)
	if wide > narrow {
		t.Errorf("frame-closing Push allocates %d times at 3×30 but %d at 3×1; per-channel allocations are back", wide, narrow)
	}
	if wide > frameCloseMaxAllocs {
		t.Errorf("frame-closing Push allocates %d times at 3×30, want at most %d", wide, frameCloseMaxAllocs)
	}
}

// frameCloseAllocs returns the fewest heap allocations the frame-closing
// Push of an ants×subs CSI stream made over several warmed-up frames. The
// minimum discards a frame whose pools a garbage collection emptied.
func frameCloseAllocs(t *testing.T, ants, subs int) uint64 {
	t.Helper()
	payload := randomPayload(45, 11)
	mod, err := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultSynth()
	cfg.antennas, cfg.subchannels = ants, subs
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 12)
	d, _ := NewDecoder(DefaultConfig(0.01))
	fill, closing, ok := splitAtClose(s, mod.Start(), mod.End())
	if !ok {
		t.Fatal("series ends inside the frame")
	}
	best := ^uint64(0)
	var ms runtime.MemStats
	for run := 0; run < 8; run++ {
		sd, err := d.NewStream(mod.Start(), len(payload), StreamCSI)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fill {
			if _, err := sd.Push(m); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		bits, err := sd.Push(closing)
		runtime.ReadMemStats(&ms)
		if err != nil || len(bits) != len(payload) {
			t.Fatalf("closing push returned %d bits, error %v", len(bits), err)
		}
		// The first two frames warm the buffer pools.
		if run >= 2 {
			best = min(best, ms.Mallocs-before)
		}
	}
	return best
}

// TestDetectAckAllocs holds DetectAck's allocations to the burst, not the
// trace: a call on a 20 s series allocates no more often and no more bytes
// than the same call on a 2 s one, because only the 13-bit window enters
// the frame arena.
func TestDetectAckAllocs(t *testing.T) {
	shortN, shortB := detectAckAllocs(t, 2)
	longN, longB := detectAckAllocs(t, 20)
	t.Logf("DetectAck: %d allocations (%d B) on a 2 s series, %d (%d B) on a 20 s series", shortN, shortB, longN, longB)
	if longN != shortN || longB != shortB {
		t.Errorf("DetectAck allocates %d times (%d B) on a 20 s series but %d (%d B) on a 2 s series; its cost follows the trace",
			longN, longB, shortN, shortB)
	}
}

// detectAckAllocs returns the fewest heap allocations and bytes a
// DetectAck call on an ACK burst at 1 s made over several warmed-up calls,
// in a series of the given duration. The minimum discards a call whose
// pools a garbage collection emptied.
func detectAckAllocs(t *testing.T, duration float64) (allocs, bytes uint64) {
	t.Helper()
	mod, err := tag.NewModulator(AckBits(), 1.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultSynth()
	cfg.duration = duration
	s := synthSeries(cfg, mod, 5)
	d, _ := NewDecoder(DefaultConfig(0.01))
	allocs, bytes = ^uint64(0), ^uint64(0)
	var ms runtime.MemStats
	for run := 0; run < 8; run++ {
		runtime.ReadMemStats(&ms)
		n, b := ms.Mallocs, ms.TotalAlloc
		ok, _, err := d.DetectAck(s, mod.Start())
		runtime.ReadMemStats(&ms)
		if err != nil || !ok {
			t.Fatalf("DetectAck = (%v, %v), want a detection", ok, err)
		}
		// The first two calls warm the buffer pools.
		if run >= 2 {
			allocs, bytes = min(allocs, ms.Mallocs-n), min(bytes, ms.TotalAlloc-b)
		}
	}
	return allocs, bytes
}

// TestStashAgeAllocs: once its lists have grown, a stash allocates
// nothing to put, age and get an item it has held before (the weak
// pointer age makes is the one it made last time).
func TestStashAgeAllocs(t *testing.T) {
	var s stash[[1024]float64]
	slab := new([1024]float64)
	for range 4 {
		s.put(slab)
		s.age()
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.put(slab)
		s.age()
		if s.get() != slab {
			t.Fatal("the item put before one age is gone")
		}
	})
	if allocs != 0 {
		t.Fatalf("put, age and get allocate %v times, want 0", allocs)
	}
}
