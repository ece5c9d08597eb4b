package serve

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/csi"
	"repro/internal/rng"
)

// The exactness oracle for the wire's decimal fast path: the m-line parser
// as it was when every float went through strconv, kept verbatim (renamed
// with a ref prefix). ParseMeasurement must agree with it bit for bit on
// every line it accepts and word for word on every error, because the
// serving layer's byte-identical-to-batch contract rests on the parsed
// floats.

// refFloat is fieldScanner.float before the fast path.
func refFloat(f *fieldScanner) (float64, error) {
	tok, ok := f.next()
	if !ok {
		return 0, fmt.Errorf("serve: line is missing a numeric field")
	}
	return strconv.ParseFloat(string(tok), 64)
}

func refParseMeasurement(line []byte, m *csi.Measurement) error {
	f := fieldScanner{b: line}
	if tok, ok := f.next(); !ok || string(tok) != "m" {
		return fmt.Errorf("serve: expected an m line, got %q", line)
	}
	var err error
	if m.Timestamp, err = refFloat(&f); err != nil {
		return fmt.Errorf("serve: m timestamp: %v", err)
	}
	for a := range m.RSSI {
		if m.RSSI[a], err = refFloat(&f); err != nil {
			return fmt.Errorf("serve: m rssi[%d]: %v", a, err)
		}
	}
	for a := range m.CSI {
		for k := range m.CSI[a] {
			if m.CSI[a][k], err = refFloat(&f); err != nil {
				return fmt.Errorf("serve: m csi[%d][%d]: %v", a, k, err)
			}
		}
	}
	if _, extra := f.next(); extra {
		return fmt.Errorf("serve: m line has more fields than the declared shape")
	}
	return nil
}

// TestFloatMatchesStrconv compares the wire float reader with strconv on
// the decimal forms that reach it: quantised CSI amplitudes printed
// shortest ('g'/-1, mostly 17-digit mantissas at or above 2^53), 'f' with
// every precision, 'e' forms (strconv's), integers just above 2^53
// where the quotient path meets exact ties, and 19- and 20-digit
// fractions.
func TestFloatMatchesStrconv(t *testing.T) {
	s := rng.New(17)
	var line []byte
	check := func(tok []byte) {
		t.Helper()
		line = append(append(line[:0], ' '), tok...)
		f := fieldScanner{b: line}
		got, err := f.float()
		want, werr := strconv.ParseFloat(string(tok), 64)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%q: error %v, strconv %v", tok, err, werr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: %v (%#x), strconv %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if f.i != len(line) {
			t.Fatalf("%q: scanner stopped at %d of %d", tok, f.i, len(line))
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
