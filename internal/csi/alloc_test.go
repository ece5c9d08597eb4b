//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; this assertion only runs in the plain test pass (the
// Makefile's `test` and `bench-observe` targets, not `race`).

package csi

import (
	"testing"

	"repro/internal/rng"
)

// TestMeasureAllocs pins the one-slab report: a 3×30 measurement
// allocates its row headers and one slab for the rows and RSSI.
func TestMeasureAllocs(t *testing.T) {
	card := NewCard(DefaultModel(), rng.New(1))
	h := flatChannel(3, 30, 10)
	if allocs := testing.AllocsPerRun(100, func() { card.Measure(0, h) }); allocs > 2 {
		t.Errorf("Measure of a 3x30 channel: %v allocs, want at most 2", allocs)
	}
}

// TestMeasureIntoAllocs pins the reused report: measuring a 3×30 channel
// into a report of the same shape allocates nothing.
func TestMeasureIntoAllocs(t *testing.T) {
	card := NewCard(DefaultModel(), rng.New(1))
	h := flatChannel(3, 30, 10)
	m := card.Measure(0, h)
	if allocs := testing.AllocsPerRun(100, func() { card.MeasureInto(&m, 0, h) }); allocs != 0 {
		t.Errorf("MeasureInto a 3x30 report: %v allocs, want 0", allocs)
	}
}

// TestSkipIntoAllocs pins the skipped report: drawing a 3×30 packet's
// noise into a report of the same shape allocates nothing.
func TestSkipIntoAllocs(t *testing.T) {
	card := NewCard(DefaultModel(), rng.New(1))
	h := flatChannel(3, 30, 10)
	m := card.Measure(0, h)
	if allocs := testing.AllocsPerRun(100, func() { card.SkipInto(&m, 0, h) }); allocs != 0 {
		t.Errorf("SkipInto a 3x30 report: %v allocs, want 0", allocs)
	}
}
