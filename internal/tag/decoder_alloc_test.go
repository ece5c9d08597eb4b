//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; this assertion only runs in the plain test pass.

package tag

import (
	"testing"

	"repro/internal/rng"
)

// TestDecoderOnEdgeAllocs holds preamble detection to no allocation per
// edge: the edge window shifts down in place instead of being resliced
// from the front and regrown. Each run feeds ordinary traffic's edges and
// then a preamble, which must still be detected.
func TestDecoderOnEdgeAllocs(t *testing.T) {
	const bitDur = 50e-6
	d, err := NewDecoder(bitDur)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.New(7)
	traffic := make([]float64, 64)
	at := 0.0
	for i := range traffic {
		at += rnd.Exponential(300e-6)
		traffic[i] = at
	}
	times, levels := preambleEdges(at+1e-3, bitDur)
	span := times[len(times)-1] + 1e-3
	var offset float64
	var edges, matches int
	feed := func() {
		for i, at := range traffic {
			d.OnEdge(offset+at, i%2 == 0)
		}
		for i, at := range times {
			if d.OnEdge(offset+at, levels[i]) && i == len(times)-1 {
				matches++
			}
		}
		edges += len(traffic) + len(times)
		offset += span
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, feed)
	if matches != runs+1 {
		t.Fatalf("%d preambles detected in %d runs", matches, runs+1)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per run of %d edges, want 0", allocs, edges/(runs+1))
	}
}
