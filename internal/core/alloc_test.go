//go:build !race

// The race detector instruments allocations, so the counts below are
// over-counted under -race; this gate only runs in the plain test pass
// (the Makefile's `test` and `bench-observe` targets, not `race`).

package core

import (
	"runtime"
	"testing"

	"repro/internal/uplink"
	"repro/internal/wifi"
)

// captureAllocs returns the fewest heap allocations, over three runs, a
// system made running seconds past a one-second warm-up with 1000 packets
// a second of CBR traffic and streams as its only consumers: one frame
// that closed during the warm-up, one held for Flush after its end, one
// whose frame lies past the run and an ACK burst window. When captured,
// the helper sends the traffic and the reader measures every packet;
// otherwise a station the reader does not measure sends it, so the
// difference between the two is what the captures cost.
func captureAllocs(t *testing.T, captured bool, seconds float64) int64 {
	t.Helper()
	best := int64(-1)
	for range 3 {
		sys, err := NewSystem(Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		src := sys.Helper
		if !captured {
			src = sys.AddStation("client", 16, 2)
		}
		if err := (&wifi.CBRSource{Station: src, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start(); err != nil {
			t.Fatal(err)
		}
		dec, err := sys.UplinkDecoder(100)
		if err != nil {
			t.Fatal(err)
		}
		closed, _ := dec.NewStream(0.2, 20, uplink.StreamCSI)
		held, _ := dec.NewStream(0.3, 20, uplink.StreamCSI)
		held.DecodeAtFlush()
		later, _ := dec.NewStream(2+seconds, 20, uplink.StreamCSI)
		for _, sd := range []*uplink.StreamDecoder{closed, held, later, dec.NewAckStream(0.7)} {
			sys.StreamTo(sd)
		}
		sys.Run(1)
		if closed.Done() != captured {
			t.Fatalf("captured %v: the warm-up frame decoded: %v", captured, closed.Done())
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		n := ms.Mallocs
		sys.Run(1 + seconds)
		runtime.ReadMemStats(&ms)
		if a := int64(ms.Mallocs - n); best < 0 || a < best {
			best = a
		}
	}
	return best
}

// TestStreamedCaptureAllocs holds a system whose every consumer streams
// to captures that cost no allocation of their own: the allocations the
// captures add over the same traffic uncaptured must not grow when the
// system runs twice as many of them. A system that kept a series, or
// measured each report fresh, would add two or more per capture.
func TestStreamedCaptureAllocs(t *testing.T) {
	one := captureAllocs(t, true, 1) - captureAllocs(t, false, 1)
	two := captureAllocs(t, true, 2) - captureAllocs(t, false, 2)
	t.Logf("captures add %d allocations over 1 s and %d over 2 s of traffic", one, two)
	if two > one {
		t.Errorf("twice the captures add %d allocations against %d: a streamed capture allocates", two, one)
	}
}
