//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; this assertion only runs in the plain test pass (the
// Makefile's `test` and `bench-wire` targets, not `race`).

package serve

import (
	"testing"

	"repro/internal/csi"
)

// TestParseMeasurementAllocs pins the wire parse's buffer contract: an m
// line parsed into a measurement of its shape allocates nothing, on the
// decimal fast path (3×30 CSI) and for a line whose every field falls
// back to strconv.
func TestParseMeasurementAllocs(t *testing.T) {
	line, m := captureLine(30)
	slow := []byte("m 1e0 1e1 1e2 1e3 1e4")
	ms := &csi.Measurement{RSSI: make([]float64, 1), CSI: [][]float64{make([]float64, 3)}}
	for _, c := range []struct {
		line []byte
		m    *csi.Measurement
	}{{line, m}, {slow, ms}} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := ParseMeasurement(c.line, c.m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ParseMeasurement(%.40q...): %v allocs/call, want 0", c.line, allocs)
		}
	}
}
