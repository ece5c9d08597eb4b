package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed-bucket histogram of non-negative nanosecond values. The
// buckets are log-linear — 32 per power of two — so any quantile it reports
// is within about 3% of the true sample, and its memory is fixed however
// many values are folded in. Per-push timings and per-line lateness go
// here; rarer events are kept as individual spans.
type hist struct {
	counts   [histBuckets]uint64
	n        uint64
	sum      float64
	min, max int64
}

const (
	histSubBits = 5
	histBuckets = (64-histSubBits)<<histSubBits + 1<<histSubBits
)

// histBucket returns the bucket index of v: values below 32 get a bucket
// each, larger values keep their top six significant bits.
func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	e := bits.Len64(u) - histSubBits - 1
	if e < 0 {
		e = 0
	}
	return e<<histSubBits + int(u>>uint(e))
}

// histRange returns the half-open value range [lo, lo+width) of bucket i.
func histRange(i int) (lo, width int64) {
	if i < 2<<histSubBits {
		return int64(i), 1
	}
	e := i>>histSubBits - 1
	m := int64(i - e<<histSubBits)
	return m << uint(e), 1 << uint(e)
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[histBucket(v)]++
	h.n++
	h.sum += float64(v)
}

// merge folds o into h.
func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the value at quantile q by the nearest-rank rule, as
// the midpoint of the bucket holding that rank (clamped to the observed
// extremes).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := nearestRank(int(h.n), q)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > uint64(rank) {
			lo, w := histRange(i)
			v := float64(lo) + float64(w-1)/2
			return math.Min(math.Max(v, float64(h.min)), float64(h.max))
		}
	}
	return float64(h.max)
}

// nearestRank returns the 0-based index of quantile q in n sorted samples.
func nearestRank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailQuantile is the percentile rule every timing follows: report p99
// only with at least 1000 samples; otherwise the highest whole percentile
// that still leaves ten samples beyond it, and the median when fewer than
// twenty samples exist.
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n < 20 {
		return 0.5
	}
	return math.Floor(100*(1-10/float64(n))) / 100
}

// sampleQuantile returns quantile q of xs by the nearest-rank rule. xs is
// sorted in place.
func sampleQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(len(xs), q)]
}

// quartiles returns the three cut points dividing xs into quarters, by
// the same method as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the bench's spread rule is stated
// in. xs needs at least two values; it is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
