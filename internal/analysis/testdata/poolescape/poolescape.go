// Package poolescape exercises the poolhygiene escape scan by distance. A
// buffer escaping the function whose GetSlice produced it is PH003, at 0
// hops; every other reported case involves a buffer whose GetSlice
// happened in a callee (PH004–PH005), and the finding names the chain.
package poolescape

import "repro/internal/dsp"

// alloc hands its caller a pooled buffer: the direct return of a GetSlice
// is PH003, at 0 hops.
func alloc(n int) []float64 {
	return dsp.GetSlice(n) // want "PH003"
}

// wrap returns a transitively-acquired buffer onward: PH005, one hop from
// the GetSlice.
func wrap(n int) []float64 {
	buf := alloc(n)
	return buf // want "PH005"
}

// cache retains a buffer that is two hops from its GetSlice: PH004. The
// pool will eventually recycle the memory under cache's feet.
type cache struct {
	scratch []float64
}

func (c *cache) retain(n int) {
	c.scratch = wrap(n) // want "PH004"
}

// frame packs a transitively-acquired buffer into a composite literal,
// which outlives the frame through the return: PH004.
type frame struct {
	data []float64
}

func pack(n int) frame {
	buf := alloc(n)
	return frame{data: buf} // want "PH004"
}

// leakChan sends a transitively-acquired buffer to a receiver that
// outlives the frame: PH004.
func leakChan(n int, ch chan []float64) {
	buf := alloc(n)
	ch <- buf // want "PH004"
}

// capture closes over a transitively-acquired buffer; the closure is
// returned, so the buffer escapes with it: PH004.
func capture(n int) func() float64 {
	buf := alloc(n)
	return func() float64 { return buf[0] } // want "PH004"
}

// scratchUse is the pool's intended pattern: acquire through a helper,
// release here. Locally-released buffers are exempt, so nothing is
// reported.
func scratchUse(n int) float64 {
	buf := alloc(n)
	defer dsp.PutSlice(buf)
	var s float64
	for _, v := range buf {
		s += v
	}
	return s
}

// directUse acquires and releases directly without letting the buffer
// escape: clean.
func directUse(n int) float64 {
	buf := dsp.GetSlice(n)
	defer dsp.PutSlice(buf)
	return buf[0]
}
