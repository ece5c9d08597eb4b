package dsp

import (
	"math"
	"testing"
)

// The exactness oracle for the fused detrend kernel: the composed
// conditioning pipeline the kernel replaced, kept verbatim (renamed with a
// ref prefix). ConditionInto and ConditionTwoPassInto must reproduce it
// bit for bit (a NaN only as a NaN, see firstDiff), because every decode
// golden and pinned benchmark digest rests on these numerics.

func refMovingAverageInto(dst, xs []float64, window int) {
	if window <= 1 {
		copy(dst, xs)
		return
	}
	half := window / 2
	// Prefix sums for O(n) windowed means.
	prefix := make([]float64, len(xs)+1)
	for i, x := range xs {
		prefix[i+1] = prefix[i] + x
	}
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(xs) {
			hi = len(xs)
		}
		dst[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
}

func refRemoveTrendInto(dst, xs []float64, window int) {
	avg := make([]float64, len(xs))
	refMovingAverageInto(avg, xs, window)
	for i, x := range xs {
		dst[i] = x - avg[i]
	}
}

func refNormalizeInPlace(xs []float64) {
	scale := MeanAbs(xs)
	if scale == 0 {
		for i := range xs {
			xs[i] = 0
		}
		return
	}
	for i := range xs {
		xs[i] /= scale
	}
}

func refConditionInto(dst, xs []float64, window int) {
	refRemoveTrendInto(dst, xs, window)
	refNormalizeInPlace(dst)
}

func refConditionTwoPassInto(dst, xs []float64, window int) {
	resid := dst
	refRemoveTrendInto(resid, xs, window)
	demod := make([]float64, len(xs))
	baseline := make([]float64, len(xs))
	for iter := 0; iter < 2; iter++ {
		amp := MeanAbs(resid)
		if amp == 0 {
			break
		}
		for i, r := range resid {
			if r >= 0 {
				demod[i] = xs[i] - amp
			} else {
				demod[i] = xs[i] + amp
			}
		}
		refMovingAverageInto(baseline, demod, window)
		for i := range xs {
			resid[i] = xs[i] - baseline[i]
		}
	}
	refNormalizeInPlace(resid)
}

// firstDiff reports the first index where got and want differ as float64
// bit patterns, or -1. A NaN matches any NaN: Go leaves the sign and
// payload of a NaN result unspecified (which NaN operand an add
// propagates depends on register allocation, and an Inf − Inf creates a
// fresh one), and no decode output depends on them.
func firstDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
			!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// checkAgainstOracle runs both conditioners on xs and compares them with
// the reference bit for bit. dst is pre-filled with garbage so a kernel
// that leaves an element unwritten is caught, and the prefix row with NaN
// so a kernel that reads a prefix element it did not write this call
// (prefix[0] included) is caught.
func checkAgainstOracle(t *testing.T, name string, xs []float64, window int) {
	t.Helper()
	for _, c := range []struct {
		kind string
		got  func(dst, xs, prefix []float64, window int)
		want func(dst, xs []float64, window int)
	}{
		{"Condition", ConditionInto, refConditionInto},
		{"ConditionTwoPass", ConditionTwoPassInto, refConditionTwoPassInto},
	} {
		got := make([]float64, len(xs))
		for i := range got {
			got[i] = math.Pi
		}
		prefix := make([]float64, len(xs)+1)
		for i := range prefix {
			prefix[i] = math.NaN()
		}
		want := make([]float64, len(xs))
		c.got(got, xs, prefix, window)
		c.want(want, xs, window)
		if i := firstDiff(got, want); i >= 0 {
			t.Errorf("%s %s (n=%d, window=%d): element %d is %v (%#x), oracle %v (%#x)",
				c.kind, name, len(xs), window, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestConditionMatchesOracle(t *testing.T) {
	// A drifting two-level signal with a long run of ones: the shape the
	// decision-directed passes exist for.
	square := make([]float64, 97)
	for i := range square {
		square[i] = 10 + 0.002*float64(i) + 0.5*float64((i/7)%2)
		if i >= 40 && i < 70 {
			square[i] = 10.5 + 0.002*float64(i)
		}
	}
	withAt := func(v float64, at ...int) []float64 {
		xs := append([]float64(nil), square...)
		for _, i := range at {
			xs[i] = v
		}
		return xs
	}
	negZero := math.Copysign(0, -1)
	series := []struct {
		name string
		xs   []float64
	}{
		{"empty", nil},
		{"one sample", []float64{3.25}},
		{"two samples", []float64{1, -2}},
		{"square", square},
		{"all zero", make([]float64, 16)},
		{"constant", []float64{5, 5, 5, 5, 5, 5, 5}},
		{"negative zeros", []float64{negZero, negZero, 0, negZero, 0}},
		{"signed zeros in signal", withAt(negZero, 3, 50, 96)},
		{"+Inf", withAt(math.Inf(1), 20)},
		{"-Inf", withAt(math.Inf(-1), 0)},
		{"±Inf", withAt(math.Inf(1), 10, 11)},
		{"NaN", withAt(math.NaN(), 33)},
		{"NaN at edges", withAt(math.NaN(), 0, 96)},
	}
	for _, s := range series {
		n := len(s.xs)
		for _, window := range []int{-3, 0, 1, 2, 3, 8, 15, 40, n, n + 1, 3*n + 5} {
			checkAgainstOracle(t, s.name, s.xs, window)
		}
	}
}

// FuzzConditionTwoPass holds the fused kernel to the oracle on arbitrary
// series, non-finite samples included (see make fuzz).
func FuzzConditionTwoPass(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3))
	f.Add([]byte{255, 254, 253, 252, 1}, uint8(2))
	f.Add(make([]byte, 64), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, wRaw uint8) {
		xs := make([]float64, len(data))
		for i, b := range data {
			switch b {
			case 255:
				xs[i] = math.NaN()
			case 254:
				xs[i] = math.Inf(1)
			case 253:
				xs[i] = math.Inf(-1)
			case 252:
				xs[i] = math.Copysign(0, -1)
			default:
				xs[i] = float64(b)*0.37 - 40
			}
		}
		checkAgainstOracle(t, "fuzz", xs, int(wRaw)-2)
	})
}
