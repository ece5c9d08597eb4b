package parallel

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// withProcs runs f at GOMAXPROCS procs and restores the previous value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// splitCounts is a Split job: every index's visit count, and each chunk
// index's calls and the range it was given.
type splitCounts struct {
	visits []atomic.Int32
	calls  []atomic.Int32
	ranges [][2]int
}

func countChunk(j splitCounts, c, lo, hi int) {
	j.calls[c].Add(1)
	j.ranges[c] = [2]int{lo, hi}
	for i := lo; i < hi; i++ {
		j.visits[i].Add(1)
	}
}

func TestSplitRunsEveryIndexOnce(t *testing.T) {
	var s Split[splitCounts]
	for _, procs := range []int{1, 2, 3, 8} {
		withProcs(procs, func() {
			for _, n := range []int{0, 1, 2, 3, 7, 90} {
				for _, k := range []int{0, 1, 2, 3, 8} {
					j := splitCounts{visits: make([]atomic.Int32, n), calls: make([]atomic.Int32, max(k, 1)), ranges: make([][2]int, max(k, 1))}
					s.Run(n, k, j, countChunk)
					for i := range j.visits {
						if c := j.visits[i].Load(); c != 1 {
							t.Fatalf("GOMAXPROCS=%d n=%d k=%d: index %d ran %d times", procs, n, k, i, c)
						}
					}
					// k is capped at n; with one chunk or none, chunk 0 is
					// all of [0, n) when n > 0.
					chunks := max(min(k, n), 1)
					for c := range j.calls {
						want := int32(0)
						if c < chunks && n > 0 {
							want = 1
						}
						if got := j.calls[c].Load(); got != want {
							t.Errorf("GOMAXPROCS=%d n=%d k=%d: chunk %d ran %d times, want %d", procs, n, k, c, got, want)
						}
						if want == 1 {
							if r, wr := j.ranges[c], [2]int{c * n / chunks, (c + 1) * n / chunks}; r != wr {
								t.Errorf("GOMAXPROCS=%d n=%d k=%d: chunk %d ran %v, want %v", procs, n, k, c, r, wr)
							}
						}
					}
				}
			}
		})
	}
}

// panicAt is a Split job that panics in every chunk starting at one of
// its indices.
type panicAt map[int]bool

func panicChunk(j panicAt, _, lo, hi int) {
	if j[lo] {
		panic(fmt.Sprintf("chunk at %d", lo))
	}
}

// TestSplitReraisesLowestPanic panics in chunks that, in 4 chunks over 8
// indices, run on other goroutines: Run must re-raise on the calling
// goroutine, with the lowest panicking chunk's value.
func TestSplitReraisesLowestPanic(t *testing.T) {
	withProcs(4, func() {
		var s Split[panicAt]
		for _, tc := range []struct {
			at   panicAt
			want string
		}{
			{panicAt{6: true}, "chunk at 6"},
			{panicAt{2: true, 6: true}, "chunk at 2"},
			{panicAt{0: true, 4: true}, "chunk at 0"},
		} {
			got := func() (r any) {
				defer func() { r = recover() }()
				s.Run(8, 4, tc.at, panicChunk)
				return nil
			}()
			if got != tc.want {
				t.Errorf("panics at %v: recovered %v, want %q", tc.at, got, tc.want)
			}
			// The Split stays usable after a panic.
			s.Run(8, 4, panicAt{}, panicChunk)
		}
	})
}

// TestForEachCatchesSplitPanic runs an Engine job whose inner Split panics
// in its last chunk, which runs on a goroutine the Split started: the
// panic must come back as that job's error, not crash the process.
func TestForEachCatchesSplitPanic(t *testing.T) {
	withProcs(4, func() {
		for _, workers := range []int{1, 2} {
			err := New(workers).ForEach(3, func(i int) error {
				var s Split[panicAt]
				at := panicAt{}
				if i == 1 {
					at[6] = true // the last of 4 chunks over 8 indices
				}
				s.Run(8, 4, at, panicChunk)
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "job 1 panicked: chunk at 6") {
				t.Errorf("workers=%d: err = %v, want job 1's panic", workers, err)
			}
		}
	})
}

// TestSplitConcurrentRuns runs several Splits at once, as trial workers
// that close frames at the same moment do: they share the package's lane
// workers, every index must still run exactly once, and no more than
// GOMAXPROCS−1 workers may ever have started (8 is the most any test in
// this package sets).
func TestSplitConcurrentRuns(t *testing.T) {
	withProcs(4, func() {
		err := New(3).ForEach(6, func(int) error {
			var s Split[splitCounts]
			for range 50 {
				j := splitCounts{visits: make([]atomic.Int32, 90), calls: make([]atomic.Int32, 4), ranges: make([][2]int, 4)}
				s.Run(90, 4, j, countChunk)
				for i := range j.visits {
					if c := j.visits[i].Load(); c != 1 {
						return fmt.Errorf("index %d ran %d times", i, c)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if n := lanesStarted.Load(); n > 7 {
		t.Errorf("%d lane workers started, want at most 7", n)
	}
}
