//go:build !race

// The race detector instruments allocations, so the counts below are
// over-counted under -race; this gate only runs in the plain test pass
// (the Makefile's `test` and `bench-observe` targets, not `race`).

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/downlink"
	"repro/internal/reader"
	"repro/internal/units"
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

// windowAllocs returns the fewest heap allocations and bytes, over five
// calls, of decoding the window [start, start+dur) on sys.
func windowAllocs(t *testing.T, sys *System, start, dur float64) (allocs, bytes uint64) {
	t.Helper()
	allocs, bytes = ^uint64(0), ^uint64(0)
	var ms runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&ms)
		n, b := ms.Mallocs, ms.TotalAlloc
		res, err := sys.DecodeDownlinkWindow(start, dur, 50e-6)
		runtime.ReadMemStats(&ms)
		if err != nil || res.Err != nil {
			t.Fatalf("window of %v s: %v / %v", dur, err, res.Err)
		}
		allocs, bytes = min(allocs, ms.Mallocs-n), min(bytes, ms.TotalAlloc-b)
	}
	return allocs, bytes
}

// TestDownlinkWindowAllocs holds the tag's window rows to the system: on a
// warm system, decoding a window twice as long allocates as often, and as
// many bytes, as decoding it at its own length. A window that made its
// own envelope, comparator or edge row would allocate twice the bytes.
func TestDownlinkWindowAllocs(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 22, TagReaderDistance: units.Centimeters(20)})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTxLog()
	if err := (&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start(); err != nil {
		t.Fatal(err)
	}
	enc, err := downlink.NewEncoder(50e-6)
	if err != nil {
		t.Fatal(err)
	}
	chunks := enc.Plan(downlink.NewMessage(0x5A5A).Bits())
	var start float64
	if err := enc.Send(sys.Medium, sys.Reader, chunks, func(_ int, s float64) { start = s }); err != nil {
		t.Fatal(err)
	}
	sys.Run(0.5)
	dur := chunks[0].Reservation
	// Warm the rows at the longer length; equal starts are legal, so
	// every call decodes the same window.
	windowAllocs(t, sys, start, 2*dur)
	one, oneBytes := windowAllocs(t, sys, start, dur)
	two, twoBytes := windowAllocs(t, sys, start, 2*dur)
	t.Logf("a %v s window: %d allocations (%d B); twice as long: %d (%d B)", dur, one, oneBytes, two, twoBytes)
	if two != one || twoBytes != oneBytes {
		t.Errorf("a window twice as long allocates %d times (%d B) against %d (%d B): its rows are not the system's",
			two, twoBytes, one, oneBytes)
	}
}

// queryAllocs returns the fewest heap allocations, over three runs, of a
// clean RunQuery whose retry horizon is scale times the default one. The
// transaction completes on its first attempt, about a second in, so the
// rest of the horizon is the helper's traffic alone.
func queryAllocs(t *testing.T, scale float64) uint64 {
	t.Helper()
	best := ^uint64(0)
	for range 3 {
		sys, err := NewSystem(Config{Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		if err := (&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start(); err != nil {
			t.Fatal(err)
		}
		sys.Run(0.3)
		txn := DefaultTransactionConfig()
		txn.ResponseTimeout *= scale
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		n := ms.Mallocs
		res, err := sys.RunQuery(reader.Query{Command: reader.CmdRead, TagID: 1, BitRate: 100}, 0xC0FFEE, txn)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ResponseOK || res.Attempts != 1 {
			t.Fatalf("the clean query took %d attempts, response ok %v", res.Attempts, res.ResponseOK)
		}
		best = min(best, ms.Mallocs-n)
	}
	return best
}

// TestQueryHorizonAllocs holds a completed transaction to no allocation
// that grows with the rest of its retry horizon: a RunQuery whose horizon
// is twice as long must not allocate more. A transmission log that kept
// recording past the transaction would regrow with every span. It counts
// on one P with the collector off, as testing.AllocsPerRun counts on one
// P: the response decode's scratch comes from a sync.Pool, which a
// collection empties and which misses when the goroutine moves to
// another P, and either would add allocations at random.
func TestQueryHorizonAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	one := queryAllocs(t, 1)
	two := queryAllocs(t, 2)
	t.Logf("a clean query allocates %d times over the default horizon and %d over twice it", one, two)
	if two > one {
		t.Errorf("twice the horizon allocates %d times against %d: the idle horizon allocates", two, one)
	}
}
