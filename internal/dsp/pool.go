package dsp

import "sync"

// The decode hot path conditions ~90 channel series per frame, each
// needing one same-length prefix-sum buffer. Allocating those per call
// dominated the allocation profile of parallel sweeps, so scratch buffers
// come from a shared sync.Pool instead. Only buffers that never escape
// their function (or that callers explicitly return with PutSlice) are
// pooled; results handed to callers remain freshly allocated unless the
// caller opted into an Into variant.
//
// A round trip through the pool allocates nothing in steady state: the
// pool stores *[]float64 boxes, and the box GetSlice empties is recycled
// for the next PutSlice instead of becoming garbage, so the conditioning
// kernel's per-channel Get/Put pair costs no heap allocation.

// slicePool recycles float64 scratch buffers as *[]float64; boxPool
// recycles the emptied boxes.
var slicePool, boxPool sync.Pool

// GetSlice returns a zeroed slice of length n, reusing a pooled buffer
// when one with enough capacity is available. Return it with PutSlice
// when done; forgetting to is safe (the GC reclaims it) but forfeits the
// reuse.
func GetSlice(n int) []float64 {
	if v := slicePool.Get(); v != nil {
		box := v.(*[]float64)
		s := *box
		*box = nil
		boxPool.Put(box)
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]float64, n)
}

// PutSlice returns a buffer obtained from GetSlice to the pool. The
// caller must not use s afterwards.
func PutSlice(s []float64) {
	if cap(s) == 0 {
		return
	}
	box, _ := boxPool.Get().(*[]float64)
	if box == nil {
		box = new([]float64)
	}
	*box = s[:0]
	slicePool.Put(box)
}
