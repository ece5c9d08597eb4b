package dsp

// Correlate computes the sliding dot product of series xs with pattern p at
// every alignment. The result has length len(xs)-len(p)+1; it is empty when
// the pattern is longer than the series or either input is empty.
func Correlate(xs, p []float64) []float64 {
	if len(p) == 0 || len(xs) < len(p) {
		return nil
	}
	out := make([]float64, len(xs)-len(p)+1)
	for i := range out {
		var sum float64
		for j, pv := range p {
			sum += xs[i+j] * pv
		}
		out[i] = sum
	}
	return out
}

// BitsToLevels maps bits to the ±1 modulation levels used throughout the
// decoders: true -> +1, false -> -1.
func BitsToLevels(bits []bool) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		if b {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// ExpandLevels repeats each level n times, modelling a bit observed over n
// channel measurements. n <= 0 returns an empty slice.
func ExpandLevels(levels []float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, 0, len(levels)*n)
	for _, v := range levels {
		for j := 0; j < n; j++ {
			out = append(out, v)
		}
	}
	return out
}
