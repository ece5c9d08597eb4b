// Package poolhygiene is a wblint fixture for the dsp buffer-pool rules.
package poolhygiene

import "repro/internal/dsp"

// leak never releases the buffer.
func leak(n int) float64 {
	buf := dsp.GetSlice(n) // want "PH001"
	return buf[0]
}

// earlyReturn skips the Put on one path.
func earlyReturn(n int) float64 {
	buf := dsp.GetSlice(n)
	if n > 4 {
		return 0 // want "PH001"
	}
	v := buf[0]
	dsp.PutSlice(buf)
	return v
}

// useAfterPut reads the buffer after it went back to the pool.
func useAfterPut(n int) float64 {
	buf := dsp.GetSlice(n)
	dsp.PutSlice(buf)
	return buf[0] // want "PH002"
}

// escapeReturn hands the pooled buffer to the caller.
func escapeReturn(n int) []float64 {
	buf := dsp.GetSlice(n)
	return buf // want "PH003"
}

// escapeStore retains the pooled buffer in a struct.
type holder struct{ buf []float64 }

func escapeStore(n int) *holder {
	buf := dsp.GetSlice(n)
	return &holder{buf: buf} // want "PH003"
}

// uncaptured cannot ever release the buffer.
func uncaptured(n int) float64 {
	return sum(dsp.GetSlice(n)) // want "PH001"
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// overwritten drops the pooled buffer before releasing it.
func overwritten(n int) {
	buf := dsp.GetSlice(n)
	buf = make([]float64, n) // want "PH001"
	dsp.PutSlice(buf)
}

// deferred is the canonical clean pattern.
func deferred(n int) float64 {
	buf := dsp.GetSlice(n)
	defer dsp.PutSlice(buf)
	if n > 4 {
		return 0 // early return is fine: the defer still releases
	}
	return buf[0]
}

// deferredClosure releases via a deferred literal, and the buffer may be
// grown and reassigned through an Into-style round-trip: clean.
func deferredClosure(n int) float64 {
	buf := dsp.GetSlice(n)
	defer func() { dsp.PutSlice(buf) }()
	buf = grow(buf)
	return buf[0]
}

func grow(xs []float64) []float64 {
	return append(xs, 0)
}

// straightLine releases without defer on the only path: clean.
func straightLine(n int) float64 {
	buf := dsp.GetSlice(n)
	v := buf[0]
	dsp.PutSlice(buf)
	return v
}

// aliasLocal copies the pooled buffer into a second local, which defeats
// per-variable release tracking.
func aliasLocal(n int) float64 {
	buf := dsp.GetSlice(n)
	alias := buf // want "PH003"
	return alias[0]
}

// deferredReturn releases the buffer on exit and hands it to the caller,
// who then reads memory that is already back in the pool.
func deferredReturn(n int) []float64 {
	buf := dsp.GetSlice(n)
	defer dsp.PutSlice(buf)
	return buf // want "PH003"
}
