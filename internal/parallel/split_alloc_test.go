//go:build !race

// The race detector instruments allocations, so this count only holds in
// the plain test pass.

package parallel

import (
	"runtime"
	"testing"
)

type sumJob struct{ out []float64 }

func sumChunk(j sumJob, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		j.out[i] = float64(i) * 0.5
	}
}

// TestSplitAllocs pins that a warmed Split fans out without allocating:
// the goroutine body is bound once and the job travels by value.
// testing.AllocsPerRun would pin GOMAXPROCS to 1, so the count is read
// around the Run directly, the fewest over several.
func TestSplitAllocs(t *testing.T) {
	withProcs(4, func() {
		var s Split[sumJob]
		j := sumJob{out: make([]float64, 90)}
		best := ^uint64(0)
		var ms runtime.MemStats
		for run := 0; run < 10; run++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			s.Run(len(j.out), 4, j, sumChunk)
			runtime.ReadMemStats(&ms)
			// The first runs bind the body and warm the goroutine free list.
			if run >= 2 {
				best = min(best, ms.Mallocs-before)
			}
		}
		if best != 0 {
			t.Errorf("a warmed Split.Run over 4 chunks allocates %d times, want 0", best)
		}
	})
}
