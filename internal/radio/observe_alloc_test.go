//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; this assertion only runs in the plain test pass (the
// Makefile's `test` and `bench-observe` targets, not `race`).

package radio

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// TestObserveSteadyStateAllocs pins Observe's buffer contract: with a dst
// of the right shape, evaluating the channel for a packet allocates
// nothing.
func TestObserveSteadyStateAllocs(t *testing.T) {
	c, err := NewMultiChannel(DefaultChannelConfig(), Geometry{HelperToTag: 3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []units.Meters{0.05, 0.3} {
		if _, err := c.AddTag(d); err != nil {
			t.Fatal(err)
		}
	}
	reflecting := []bool{true, false}
	dst, err := c.Observe(0, reflecting, nil)
	if err != nil {
		t.Fatal(err)
	}
	at := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		at += 1e-3
		reflecting[1] = !reflecting[1]
		dst, _ = c.Observe(at, reflecting, dst)
	})
	if allocs != 0 {
		t.Errorf("Observe into a reused dst: %v allocs/call, want 0", allocs)
	}
}

// TestAdvanceAllocs pins Advance's contract: moving the channel on for a
// packet nobody reads allocates nothing.
func TestAdvanceAllocs(t *testing.T) {
	c, err := NewMultiChannel(DefaultChannelConfig(), Geometry{HelperToTag: 3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTag(0.05); err != nil {
		t.Fatal(err)
	}
	at := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		at += 1e-3
		c.Advance(at)
	})
	if allocs != 0 {
		t.Errorf("Advance: %v allocs/call, want 0", allocs)
	}
}
