//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; these assertions only run in the plain test pass (the
// Makefile's `test` and `bench-wire` targets, not `race`).

package serve_test

import (
	"net"
	"runtime"
	"testing"

	"repro/internal/serve"
	"repro/internal/uplink"
)

// discardSink drops a session's output.
type discardSink struct{}

func (discardSink) EmitBits([]uplink.BitDecision) error { return nil }
func (discardSink) EmitResult(*uplink.Result, error)    {}

// cycleCost is testing.AllocsPerRun that also reports bytes: it runs f
// once to warm up, then averages mallocs (rounded down, as AllocsPerRun
// does) and allocated bytes over runs calls at GOMAXPROCS 1.
func cycleCost(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSessionCycleAllocs pins the slot ring as pooled: a warmed Open →
// Push×N → Finish → Result cycle allocates as many times with 1024 slots
// as with 16, and its bytes grow only by the session's own index channel
// (4 bytes a slot), not by a ring's slots and floats.
func TestSessionCycleAllocs(t *testing.T) {
	const payloadLen = 8
	series := synthSeries(t, randomPayload(payloadLen, 7), 7)
	cost := func(buffer int) (uint64, uint64) {
		srv := serve.NewServer(serve.Config{SessionBuffer: buffer})
		return cycleCost(50, func() {
			sess, err := srv.Open(testParams(payloadLen), discardSink{})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range series.Measurements {
				if err := sess.Push(m); err != nil {
					t.Fatal(err)
				}
			}
			sess.Finish()
			if _, err := sess.Result(); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallAllocs, smallBytes := cost(16)
	largeAllocs, largeBytes := cost(1024)
	t.Logf("16 slots: %d allocs, %d B; 1024 slots: %d allocs, %d B", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if smallAllocs != largeAllocs {
		t.Errorf("session cycle: %d allocs with 16 slots, %d with 1024; want equal", smallAllocs, largeAllocs)
	}
	if grow := int64(largeBytes) - int64(smallBytes); grow > 16<<10 {
		t.Errorf("session cycle: %d B with 16 slots, %d B with 1024; want at most 16 KiB more", smallBytes, largeBytes)
	}
}

// TestLineReaderAllocs pins the connection's line reader as pooled: a
// take/release round trip allocates nothing.
func TestLineReaderAllocs(t *testing.T) {
	conn, peer := net.Pipe()
	defer func() { _ = conn.Close(); _ = peer.Close() }()
	serve.LineReaderCycle(conn)
	if allocs := testing.AllocsPerRun(100, func() { serve.LineReaderCycle(conn) }); allocs != 0 {
		t.Errorf("line reader round trip: %v allocs, want 0", allocs)
	}
}
