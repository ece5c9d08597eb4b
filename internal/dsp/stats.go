// Package dsp implements the signal-processing primitives used by the
// Wi-Fi Backscatter uplink and downlink: moving-average signal conditioning,
// normalization, correlation, orthogonal and Barker codes, majority voting,
// hysteresis thresholding, and basic statistics over measurement series.
//
// All functions operate on plain float64 slices so they compose freely with
// the CSI/RSSI measurement pipelines, and none of them retain references to
// their inputs.
package dsp

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanAbs returns the mean of |x| over xs, or 0 for an empty slice.
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Abs(x)
	}
	return sum / float64(len(xs))
}

// MeanAbsDev returns the mean absolute deviation of xs about its mean — a
// scale estimate that is linear (not quadratic) in outliers and, for a
// bimodal ±A series, close to A regardless of how unbalanced the two
// populations are.
func MeanAbsDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		sum += math.Abs(x - m)
	}
	return sum / float64(len(xs))
}

// MinMax returns the smallest and largest values in xs, or (0, 0) for an
// empty slice, matching the zero-on-empty convention of Mean.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// ArgMax returns the index of the largest value in xs, or -1 for an empty
// slice. Ties resolve to the first occurrence.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
