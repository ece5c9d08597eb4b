package dsp

import "math"

// This file implements the "signal conditioning" step from §3.2 of the
// paper: removing slow temporal channel variation with a moving average and
// normalizing the residual so tag bits map to ±1.
//
// The conditioners have Into variants writing into a caller-provided
// buffer (which must not alias xs) over a caller-owned prefix-sum row; the
// allocating forms wrap them. Both run through one kernel (condition →
// detrend): each pass keeps its running prefix sum in a register, folds
// the decision-directed demodulation into the prefix loop and the
// residual's Σ|r| into the window loop, so conditioning is a few streaming
// passes over the one prefix row.

// Normalize scales a zero-mean series so that the two modulation levels map
// to approximately -1 and +1. Following §3.2, the scale is the mean of the
// absolute values (which estimates the level magnitude without knowing the
// transmitted bits). A series with zero mean absolute value is returned
// as all zeros.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	normalizeInPlace(out)
	return out
}

// normalizeInPlace applies Normalize's scaling to xs itself.
func normalizeInPlace(xs []float64) { divideBy(xs, MeanAbs(xs)) }

// divideBy divides xs by scale in place, or zeroes it when scale is 0.
func divideBy(xs []float64, scale float64) {
	if scale == 0 {
		clear(xs)
		return
	}
	for i := range xs {
		xs[i] /= scale
	}
}

// Condition applies the full signal-conditioning pipeline: moving-average
// detrend followed by normalization. window is in samples (the paper uses
// the samples spanning 400 ms of packets).
func Condition(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	ConditionInto(out, xs, make([]float64, len(xs)+1), window)
	return out
}

// ConditionInto computes Condition into dst, which must have the same
// length as xs and not alias it. prefix is scratch of length at least
// len(xs)+1; its contents on entry do not matter.
func ConditionInto(dst, xs, prefix []float64, window int) {
	condition(dst, xs, prefix, window, 0)
}

// ConditionTwoPass is Condition with decision-directed baseline removal.
// A plain moving average is biased wherever the modulated bits are locally
// unbalanced (a run of ones drags the baseline up and crushes those very
// bits toward zero). The second pass estimates the modulation from the
// first pass's signs, subtracts it, and recomputes the baseline from the
// modulation-free residue:
//
//	resid   = xs - MA(xs)                 (first pass)
//	est     = sign(resid) · mean|resid|   (modulation estimate)
//	baseline = MA(xs - est)               (unbiased second pass)
//	out      = Normalize(xs - baseline)
//
// When the first pass's signs are noise (a weak link), est averages to
// nothing and the result degrades gracefully to the single-pass Condition.
// The estimate is refined over a few iterations, which matters near the
// series edges where the centered window is asymmetric.
func ConditionTwoPass(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	ConditionTwoPassInto(out, xs, make([]float64, len(xs)+1), window)
	return out
}

// ConditionTwoPassInto computes ConditionTwoPass into dst, which must have
// the same length as xs and not alias it. prefix is scratch of length at
// least len(xs)+1; its contents on entry do not matter.
func ConditionTwoPassInto(dst, xs, prefix []float64, window int) {
	condition(dst, xs, prefix, window, 2)
}

// condition is the one detrend kernel behind ConditionInto and
// ConditionTwoPassInto: a detrend pass, up to refine decision-directed
// passes, and the normalizing divide. Every (prefix, window) pass of
// detrend also sums |dst| in index order — exactly MeanAbs of its output —
// so the modulation amplitude a refinement starts from and the final
// normalization scale cost no pass of their own, and the only scratch is
// the caller's prefix row. The float operations and their order are
// those of the composed RemoveTrend → MeanAbs → demodulate →
// MovingAverage → subtract → Normalize pipeline, which the exactness
// oracle in condition_ref_test.go keeps verbatim and compares bit for bit.
func condition(dst, xs, prefix []float64, window, refine int) {
	n := len(xs)
	if n == 0 {
		return
	}
	sumAbs := detrend(dst, xs, prefix, window, 0)
	for iter := 0; iter < refine; iter++ {
		amp := sumAbs / float64(n)
		if amp == 0 {
			break
		}
		sumAbs = detrend(dst, xs, prefix, window, amp)
	}
	divideBy(dst, sumAbs/float64(n))
}

// detrend is one (prefix, window) pass over xs, writing the residual into
// dst and returning Σ|dst| in index order. With amp == 0 it is the plain
// pass, dst = xs − MA(xs). Otherwise it is a decision-directed pass: the
// previous residual's signs, still in dst, demodulate xs inside the prefix
// loop, and dst = xs − MA(xs − sign(dst)·amp). prefix (at least
// len(xs)+1 long) is scratch: the pass writes every element it reads,
// prefix[0] included, so stale contents never reach the result.
func detrend(dst, xs, prefix []float64, window int, amp float64) float64 {
	pos := math.Float64bits(amp)
	neg := pos ^ signBit
	var sum float64
	if window <= 1 {
		// The moving average over one sample is the sample itself.
		for i, x := range xs {
			v := x
			if amp != 0 {
				v = x - modulation(pos, neg, dst[i])
			}
			r := x - v
			dst[i] = r
			sum += math.Abs(r)
		}
		return sum
	}
	prefix[0] = 0
	var run float64
	if amp == 0 {
		for i, x := range xs {
			run += x
			prefix[i+1] = run
		}
	} else {
		for i, x := range xs {
			run += x - modulation(pos, neg, dst[i])
			prefix[i+1] = run
		}
	}
	// The centered window is clamped only within half of either end; the
	// interior between needs no clamps and has one sample count.
	half, n := window/2, len(xs)
	in0 := min(half, n)
	in1 := max(n-half, in0)
	for i := 0; i < in0; i++ {
		hi := min(i+half+1, n)
		r := xs[i] - (prefix[hi]-prefix[0])/float64(hi)
		dst[i] = r
		sum += math.Abs(r)
	}
	count := float64(2*half + 1)
	for i := in0; i < in1; i++ {
		r := xs[i] - (prefix[i+half+1]-prefix[i-half])/count
		dst[i] = r
		sum += math.Abs(r)
	}
	for i := in1; i < n; i++ {
		lo := max(i-half, 0)
		r := xs[i] - (prefix[n]-prefix[lo])/float64(n-lo)
		dst[i] = r
		sum += math.Abs(r)
	}
	return sum
}

// modulation is the decision-directed modulation estimate for a sample
// whose previous residual is r: amp (bits pos) where r >= 0, −amp (bits
// neg) elsewhere. Subtracting it is the branching x − amp / x + amp
// exactly: x − (−a) == x + a in IEEE-754 (up to which NaN propagates),
// and the condition is the branch's own r >= 0, so −0 still takes x − amp
// and a NaN residual x + amp. Selecting between the two bit patterns
// compiles to a conditional move instead of a branch on noisy signs.
func modulation(pos, neg uint64, r float64) float64 {
	b := neg
	if r >= 0 {
		b = pos
	}
	return math.Float64frombits(b)
}

// signBit is the IEEE-754 sign bit of a float64.
const signBit = 1 << 63
