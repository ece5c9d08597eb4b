// Package determinism is a wblint fixture: every line carrying a want
// comment must produce the named diagnostic, and lines without one must
// stay clean.
package determinism

import (
	"fmt"
	"math/rand" // want "DT002"
	"sort"
	"time"

	"repro/internal/rng"
)

// wallClock reads the clock outside the allowlist.
func wallClock() float64 {
	t0 := time.Now()    // want "DT001"
	d := time.Since(t0) // want "DT001"
	return d.Seconds() + rand.Float64()
}

// mapOrderedOutput prints in map order.
func mapOrderedOutput(counts map[string]int) {
	for k, v := range counts { // want "DT003"
		fmt.Println(k, v)
	}
}

// sortedOutput iterates sorted keys: clean.
func sortedOutput(counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, counts[k])
	}
}

// mintedRoots builds rng root streams locally in a package that must be
// handed its stream by the composition root.
func mintedRoots() float64 {
	s := rng.New(1)            // want "DT004"
	u := rng.TrialStream(1, 2) // want "DT004"
	return s.Float64() + u.Float64()
}

// packageRoot mints a root in a package-level initializer.
var packageRoot = rng.New(7) // want "DT004"

// injectedStream receives its stream and derives children with Split:
// clean — deriving is sanctioned, minting is not.
func injectedStream(s *rng.Stream) float64 {
	return s.Split("local").Float64()
}

// seedArithmetic uses TrialSeed without minting a stream: clean — the
// composition root may be handed a derived seed.
func seedArithmetic(base int64, trial int) int64 {
	return rng.TrialSeed(base, trial)
}

// mapAccumulate ranges a map without emitting output: clean (the sum is
// order-independent).
func mapAccumulate(counts map[string]int) int {
	total := 0
	for _, v := range counts {
		total += v
	}
	return total
}

// started reads the clock in a package-level initializer, which is not a
// call-graph node: the initializer walk must still see it.
var started = time.Now() // want "DT001"

// stamp reads the clock inside a function literal bound at package level.
var stamp = func() int64 { return time.Now().UnixNano() } // want "DT001"

// formattedKeys formats inside a map range but only collects, and sorts
// before anything is emitted: clean. fmt.Sprint builds a value; it is not
// output.
func formattedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, fmt.Sprint(k))
	}
	sort.Strings(keys)
	return keys
}
