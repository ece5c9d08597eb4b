// Package taint exercises the determinism analyzer by distance. Each source
// (time.Now, rand.Float64, a map range) is reported at 0 hops where it sits
// (DT001, DT002, DT003) and by its interprocedural code (DT005–DT007) where
// its value surfaces one or two calls away.
package taint

import (
	"fmt"
	"math/rand" // want "DT002"
	"sort"
	"time"

	"repro/internal/obs"
)

// --- wall-clock chain: source → one hop → two hops ---------------------

// clockSeed returns a wall-clock-derived value: the read itself is DT001,
// at 0 hops.
func clockSeed() int64 {
	return time.Now().UnixNano() // want "DT001"
}

// deriveSeed is one call from the source.
func deriveSeed(offset int64) int64 {
	s := clockSeed() // want "DT005"
	return s + offset
}

// trialOutcome is two calls from the source: the finding names the whole
// chain back to the time.Now in clockSeed.
func trialOutcome() int64 {
	return deriveSeed(7) // want "DT005"
}

// --- unseeded-rand chain ----------------------------------------------

func noise() float64 {
	return rand.Float64()
}

func jitter() float64 {
	n := noise() // want "DT006"
	return n * 0.5
}

func perturb(x float64) float64 {
	return x + jitter() // want "DT006"
}

// --- map-iteration-order chain ----------------------------------------

// emitDirect prints inside the map range itself: DT003, at 0 hops.
func emitDirect(m map[string]int) {
	for k := range m { // want "DT003"
		fmt.Println(k)
	}
}

// unsortedKeys accumulates in map-walk order; holding such a slice is
// legal, so nothing is reported here.
func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// emit prints the keys in whatever order the map walk produced, one call
// below the accumulation: DT007 at the sink.
func emit(m map[string]int) {
	keys := unsortedKeys(m)
	for _, k := range keys {
		fmt.Println(k) // want "DT007"
	}
}

// emitSorted is the sanctioned shape: a sort between the map walk and the
// output cleanses the ordering.
func emitSorted(m map[string]int) {
	keys := unsortedKeys(m)
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k)
	}
}

// unsortedVals mirrors unsortedKeys for a float-valued map.
func unsortedVals(m map[string]float64) []float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	return vals
}

// observeFirst feeds a map-ordered value to a metric: the histogram's
// shape now depends on the map walk.
func observeFirst(m map[string]float64, h *obs.Histogram) {
	vals := unsortedVals(m)
	h.Observe(vals[0]) // want "DT007"
}

// keyCount derives only the length from a map-ordered slice: len is
// order-independent and exempt from propagation, so nothing is reported.
func keyCount(m map[string]int) int {
	keys := unsortedKeys(m)
	return len(keys)
}
