package serve

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/csi"
)

// FuzzWireProtocol throws arbitrary lines at every wbserve/1 parser the
// TCP front end exposes to the network. Two properties: no input may
// panic a parser, and any line a parser accepts must survive a
// format→reparse round trip — ParseHello/ParseResume reproduce the same
// values, ParseMeasurement reaches a canonical form that re-formats
// byte-identically (floats travel as strconv 'g'/-1, so NaN-safe byte
// comparison is the right equality). ParseMeasurement must also agree
// with refParseMeasurement, the all-strconv parser it replaced: the same
// accept/reject verdict, the same error text, and the same float bits in
// every field, both for the fixed 2+2x4 shape and for a shape fitted to
// the line's field count. The checked-in corpus under
// testdata/fuzz seeds the malformed shapes that found real bugs
// (non-finite hello floats admitted past a "<= 0" check — see
// SessionParams.Validate).
func FuzzWireProtocol(f *testing.F) {
	seeds := []string{
		// Well-formed lines, one per verb.
		"hello wbserve/1 csi 100 1 20 2 4",
		"hello wbserve/1 rssi 100 1.5 20 2 0 prio=9 resume=1",
		"resume wbserve/1 0123456789abcdef 12",
		"m 1.25 10.1 9.8 1 2 3 4 5 6 7 8",
		"flush",
		"ok 00000042 token=00deadbeef001122 seq=17 fin=0",
		"ok 7",
		"bit 3 1 75",
		"done 10100110101001101010 corr=0.93 mpb=9.5",
		"done - corr=0 mpb=0",
		"error serve: session poisoned",
		"reject retry-after=2.5 serve: at session capacity",
		// Malformed: wrong magic, bad floats, oversized fields, truncation.
		"hello wbserve/2 csi 100 1 20 2 4",
		"hello wbserve/1 csi nan 1 20 2 4",
		"hello wbserve/1 csi +Inf 1 20 2 4",
		"hello wbserve/1 csi 100 1 999999999 2 4",
		"hello wbserve/1 csi 100 1 20 2 4 prio=99",
		"hello wbserve/1 csi 100 1 20 2 4 unknown=1",
		"resume wbserve/1 xyz 5",
		"resume wbserve/1 0123456789ABCDEF 5",
		"resume wbserve/1 0123456789abcdef 999999999999999999",
		"resume wbserve/1 0123456789abcdef -1",
		"m 1e309 1 2",
		"m",
		"ok 00000042 token=",
		"done 1012 corr=0 mpb=0",
		"reject retry-after=x overloaded",
		"",
		"hello",
		"\x00\xff hello wbserve/1",
		// Decimal fast path: 17-digit mantissas at or above 2^53, round-half-
		// even ties in the quotient path (2^53+1, 2^53+3, 2^52+0.5,
		// 2^52+1.5), a quotient just above a tie that only the remainder
		// rounds up, 19- and 20-digit mantissas, and the forms strconv takes
		// on its own.
		"m 1 12.120000000000001 9007199254740993 9007199254740995 4503599627370496.5 4503599627370497.5 1.2158987815388832 1234567890123456789 12345678901234567890 0.1234567890123456789 9999999999999999999",
		"m 0.00000000000000000000001 0.1234567890123456789012345 -123456789012345678.9",
		"m -0 0.000 .5 5. +1 1e22 1e23 NaN -Inf 0x1p-2 1_0",
		"m 1 2\t3 4 5 6 7 8 9 10 11",
		"m 1 . - -. 5 6 7 8 9 10 11",
	}
	// A quantised 3x30 CSI line as a capture prints it: amplitudes on a
	// 0.01 grid, so most print as 17-digit shortest forms.
	q := csi.Measurement{Timestamp: 1.001, RSSI: []float64{-51.25, -50, -49.5}, CSI: make([][]float64, 3)}
	for a := range q.CSI {
		q.CSI[a] = make([]float64, 30)
		for k := range q.CSI[a] {
			q.CSI[a][k] = math.Round((10+float64(a)+0.37*float64(k))/0.01) * 0.01
		}
	}
	seeds = append(seeds, string(AppendMeasurement(nil, q)))
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if p, err := ParseHello(line); err == nil {
			rt, err2 := ParseHello(AppendHello(nil, p))
			if err2 != nil {
				t.Fatalf("accepted hello %q did not reparse: %v", line, err2)
			}
			if rt != p {
				t.Fatalf("hello round trip changed %+v to %+v", p, rt)
			}
		}
		if tok, have, err := ParseResume(line); err == nil {
			tok2, have2, err2 := ParseResume(AppendResume(nil, tok, have))
			if err2 != nil {
				t.Fatalf("accepted resume %q did not reparse: %v", line, err2)
			}
			if tok2 != tok || have2 != have {
				t.Fatalf("resume round trip changed (%q,%d) to (%q,%d)", tok, have, tok2, have2)
			}
		}
		m := shaped([3]int{2, 2, 4})
		if err := ParseMeasurement(line, &m); err == nil {
			canon := AppendMeasurement(nil, m)
			m2 := shaped([3]int{2, 2, 4})
			if err2 := ParseMeasurement(canon, &m2); err2 != nil {
				t.Fatalf("accepted m line %q did not reparse: %v", line, err2)
			}
			if again := AppendMeasurement(nil, m2); !bytes.Equal(canon, again) {
				t.Fatalf("m canonical form unstable: %q then %q", canon, again)
			}
		}
		fields := bytes.Count(line, []byte{' '}) // at least the floats after "m"
		for _, shape := range [][3]int{{2, 2, 4}, {0, 1, max(fields-1, 0)}} {
			got, want := shaped(shape), shaped(shape)
			err, werr := ParseMeasurement(line, &got), refParseMeasurement(line, &want)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("m line %q: error %v, reference %v", line, err, werr)
			}
			if g, w := floatBits(got), floatBits(want); err == nil && !slices.Equal(g, w) {
				t.Fatalf("m line %q: parsed bits %x, reference %x", line, g, w)
			}
		}
		_, _ = ParseResponse(line)
	})
}

// shaped returns a zeroed measurement of shape {rssi, rows, cols}.
func shaped(shape [3]int) csi.Measurement {
	m := csi.Measurement{RSSI: make([]float64, shape[0]), CSI: make([][]float64, shape[1])}
	for a := range m.CSI {
		m.CSI[a] = make([]float64, shape[2])
	}
	return m
}

// floatBits lists every field of m as its IEEE bits, timestamp first.
func floatBits(m csi.Measurement) []uint64 {
	out := []uint64{math.Float64bits(m.Timestamp)}
	for _, v := range m.RSSI {
		out = append(out, math.Float64bits(v))
	}
	for _, row := range m.CSI {
		for _, v := range row {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}
