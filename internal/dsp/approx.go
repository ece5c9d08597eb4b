package dsp

import "math"

// Tolerance helpers for floating-point comparison. The decode pipeline's
// quantities are accumulated float arithmetic (conditioned series, MRC
// weights, correlations), where exact == is almost always a latent bug;
// wblint's floatsafe analyzer steers comparisons here.

// DefaultTol is a reasonable tolerance for quantities of order one, such
// as conditioned (normalized to ±1) series values and correlations.
const DefaultTol = 1e-9

// ApproxEqual reports whether a and b agree within tol, absolutely for
// small values and relatively for large ones:
//
//	|a-b| <= tol * max(1, |a|, |b|)
//
// NaNs are never equal to anything; equal infinities are equal.
func ApproxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //wblint:ignore FS001 exact match (incl. equal infinities) short-circuits before the tolerance test
		return true
	}
	scale := 1.0
	if aa := math.Abs(a); aa > scale {
		scale = aa
	}
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	return math.Abs(a-b) <= tol*scale
}
