//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; this assertion only runs in the plain test pass (the
// Makefile's `test` and `bench-observe` targets, not `race`).

package sim

import "testing"

// TestScheduleSteadyStateAllocs pins the value-typed queue: once the
// queue has grown to the schedule's depth, scheduling a pre-built closure
// and dispatching it allocates nothing.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	schedule := func() {
		for i := 0; i < 64; i++ {
			e.Schedule(float64(i%8)*1e-3, fn)
		}
		e.Run(e.Now() + 1)
	}
	schedule()
	if allocs := testing.AllocsPerRun(100, schedule); allocs != 0 {
		t.Errorf("warmed schedule and dispatch: %v allocs per 64 events, want 0", allocs)
	}
}
