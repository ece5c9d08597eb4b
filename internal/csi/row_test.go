package csi

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/rng"
)

// TestFloatMatchesStrconv compares the wire float reader with strconv on
// the decimal forms that reach it: quantised CSI amplitudes printed
// shortest ('g'/-1, mostly 17-digit mantissas at or above 2^53), 'f' with
// every precision, 'e' forms (strconv's), integers just above 2^53
// where the quotient path meets exact ties, and 19- and 20-digit
// fractions. Each token is read at the end of a row and in the middle of
// one, followed by one space or by several and then another field, so
// the reader must stop at the space after the token and leave the next
// field whole.
func TestFloatMatchesStrconv(t *testing.T) {
	s := rng.New(17)
	var line []byte
	check := func(tok []byte) {
		t.Helper()
		want, werr := strconv.ParseFloat(string(tok), 64)
		for _, gap := range []string{"", " ", "   "} {
			line = append(append(line[:0], ' '), tok...)
			if gap != "" {
				line = append(append(line, gap...), "-7.25"...)
			}
			f := rowScanner{b: line}
			got, err := f.float()
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("%q: error %v, strconv %v", line, err, werr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q: %v (%#x), strconv %v (%#x)", line, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if f.i != 1+len(tok) {
				t.Fatalf("%q: scanner stopped at %d, want %d", line, f.i, 1+len(tok))
			}
			if gap == "" {
				continue
			}
			if next, err := f.float(); err != nil || math.Float64bits(next) != math.Float64bits(-7.25) || f.i != len(line) {
				t.Fatalf("%q: next field %v, %v, scanner at %d of %d", line, next, err, f.i, len(line))
			}
		}
	}
	var tok []byte
	for i := 0; i < 100000; i++ {
		x := s.Float64() * math.Pow(10, float64(s.Intn(12)-4))
		if s.Intn(2) == 0 {
			x = -x
		}
		step := []float64{0.01, 0.05, 0.1, 0.25, 1.0 / 3}[s.Intn(5)]
		check(strconv.AppendFloat(tok[:0], math.Round(x/step)*step, 'g', -1, 64))
		check(strconv.AppendFloat(tok[:0], x, 'g', -1, 64))
		check(strconv.AppendFloat(tok[:0], x, 'f', s.Intn(24), 64))
		check(strconv.AppendFloat(tok[:0], x, 'e', 18, 64))
		check(strconv.AppendUint(tok[:0], 1<<53+uint64(s.Intn(1<<12)), 10))
		check(strconv.AppendUint(append(tok[:0], "0."...), uint64(s.Intn(math.MaxInt64))*2+uint64(s.Intn(2)), 10))
	}
}
