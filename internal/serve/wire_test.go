package serve

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/uplink"
)

func TestHelloRoundTrip(t *testing.T) {
	want := SessionParams{
		Mode:        uplink.StreamCSI,
		BitRate:     1000.0 / 3,
		Start:       1.25,
		PayloadLen:  64,
		Antennas:    3,
		Subchannels: 30,
	}
	line := AppendHello(nil, want)
	got, err := ParseHello(line)
	if err != nil {
		t.Fatalf("ParseHello(%q): %v", line, err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	want.Mode = uplink.StreamRSSI
	want.Subchannels = 0
	if got, err = ParseHello(AppendHello(nil, want)); err != nil || got != want {
		t.Errorf("rssi round trip: got %+v, %v", got, err)
	}
}

func TestParseHelloErrors(t *testing.T) {
	bad := []string{
		"",
		"hi wbserve/1 csi 100 1 8 2 4",
		"hello wbserve/2 csi 100 1 8 2 4",
		"hello wbserve/1 dsss 100 1 8 2 4",
		"hello wbserve/1 csi x 1 8 2 4",
		"hello wbserve/1 csi 100 1 8 2",
		"hello wbserve/1 csi 100 1 8 2 4 junk",
		"hello wbserve/1 csi -5 1 8 2 4",
		"hello wbserve/1 csi 100 1 8 2 0", // CSI needs sub-channels
	}
	for _, line := range bad {
		if _, err := ParseHello([]byte(line)); err == nil {
			t.Errorf("ParseHello(%q) accepted", line)
		}
	}
}

func TestMeasurementRoundTripExact(t *testing.T) {
	// Awkward floats must survive the wire byte-exactly; the serving
	// equivalence criterion depends on it.
	src := csi.Measurement{
		Timestamp: 1.0000000000000002,
		RSSI:      []float64{-51.25, math.Pi},
		CSI: [][]float64{
			{1.0 / 3, 17.000000000000004},
			{2.220446049250313e-16, 12345.678901234567},
		},
	}
	line := AppendMeasurement(nil, src)
	got := csi.Measurement{
		RSSI: make([]float64, 2),
		CSI:  [][]float64{make([]float64, 2), make([]float64, 2)},
	}
	if err := ParseMeasurement(line, &got); err != nil {
		t.Fatalf("ParseMeasurement(%q): %v", line, err)
	}
	if got.Timestamp != src.Timestamp {
		t.Errorf("timestamp %v != %v", got.Timestamp, src.Timestamp)
	}
	for a := range src.RSSI {
		if got.RSSI[a] != src.RSSI[a] {
			t.Errorf("rssi[%d] %v != %v", a, got.RSSI[a], src.RSSI[a])
		}
		for k := range src.CSI[a] {
			if got.CSI[a][k] != src.CSI[a][k] {
				t.Errorf("csi[%d][%d] %v != %v", a, k, got.CSI[a][k], src.CSI[a][k])
			}
		}
	}

	// The decimal fast path's hard cases, each parsed as one m line and
	// compared bit for bit with strconv.ParseFloat of the same token:
	// quantised amplitudes (17-digit mantissas at or above 2^53),
	// round-half-even ties in the quotient path, quotients a hair above a
	// tie that only the remainder rounds up, 19- and 20-digit mantissas,
	// and the forms that fall back to strconv.
	tokens := []string{
		"12.120000000000001", "10.700000000000001", "15.14", "9.24", "-51.25",
		"9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5",
		"1.2158987815388832", "46.344858665429431",
		"1234567890123456789", "12345678901234567890", "0.1234567890123456789", "9999999999999999999",
		"-0", "0.000", "-0.0", ".5", "5.", "+1", "1e22", "1e23", "NaN", "-Inf", "0x1p-2", "1_0",
	}
	for _, v := range []float64{0.01, 0.05, 0.1, 0.25} {
		for x := -3.0; x < 30; x += 1.37 {
			tokens = append(tokens, strconv.FormatFloat(math.Round(x/v)*v, 'g', -1, 64))
		}
	}
	for _, tok := range tokens {
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			t.Fatalf("strconv rejects %q: %v", tok, err)
		}
		m := csi.Measurement{CSI: [][]float64{{0}}}
		if err := ParseMeasurement([]byte("m "+tok+" "+tok), &m); err != nil {
			t.Fatalf("ParseMeasurement(%q): %v", tok, err)
		}
		for _, got := range []float64{m.Timestamp, m.CSI[0][0]} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%q parsed to %v (%#x), strconv gives %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	m := csi.Measurement{CSI: [][]float64{{0}}}
	if err := ParseMeasurement([]byte("m -0 -0.000"), &m); err != nil || !math.Signbit(m.Timestamp) || !math.Signbit(m.CSI[0][0]) {
		t.Errorf("-0 lost its sign: %v %v, %v", m.Timestamp, m.CSI[0][0], err)
	}

	// Malformed fields keep strconv's error text, exactly as the all-
	// strconv parser reported it.
	shape := func() *csi.Measurement {
		return &csi.Measurement{RSSI: make([]float64, 1), CSI: [][]float64{make([]float64, 2)}}
	}
	for line, want := range map[string]string{
		"m 1 2 3":       "serve: m csi[0][1]: serve: line is missing a numeric field",
		"m 1 2 3 4 5":   "serve: m line has more fields than the declared shape",
		"m 1 2 nope 4":  `serve: m csi[0][0]: strconv.ParseFloat: parsing "nope": invalid syntax`,
		"x 1 2 3 4":     `serve: expected an m line, got "x 1 2 3 4"`,
		"m 1e400 2 3 4": `serve: m timestamp: strconv.ParseFloat: parsing "1e400": value out of range`,
		"m 1 2\t3 4":    `serve: m rssi[0]: strconv.ParseFloat: parsing "2\t3": invalid syntax`,
		"m 1 2 3 .":     `serve: m csi[0][1]: strconv.ParseFloat: parsing ".": invalid syntax`,
		"m -":           `serve: m timestamp: strconv.ParseFloat: parsing "-": invalid syntax`,
	} {
		if err := ParseMeasurement([]byte(line), shape()); err == nil || err.Error() != want {
			t.Errorf("ParseMeasurement(%q) = %v, want %s", line, err, want)
		}
	}
}

func TestParseMeasurementShapeErrors(t *testing.T) {
	shaped := func() *csi.Measurement {
		return &csi.Measurement{RSSI: make([]float64, 1), CSI: [][]float64{make([]float64, 2)}}
	}
	if err := ParseMeasurement([]byte("m 1 2 3 4"), shaped()); err != nil {
		t.Errorf("exact field count rejected: %v", err)
	}
	if err := ParseMeasurement([]byte("m 1 2 3"), shaped()); err == nil {
		t.Error("short m line accepted")
	}
	if err := ParseMeasurement([]byte("m 1 2 3 4 5"), shaped()); err == nil {
		t.Error("long m line accepted")
	}
	if err := ParseMeasurement([]byte("m 1 2 nope 4"), shaped()); err == nil {
		t.Error("non-numeric field accepted")
	}
	if err := ParseMeasurement([]byte("x 1 2 3 4"), shaped()); err == nil {
		t.Error("non-m line accepted")
	}
}

func TestParseResponseKinds(t *testing.T) {
	r, err := ParseResponse([]byte("ok 42"))
	if err != nil || r.Kind != RespOK || r.ID != 42 {
		t.Errorf("ok: %+v, %v", r, err)
	}
	r, err = ParseResponse([]byte("reject serve: at session capacity"))
	if err != nil || r.Kind != RespReject || !strings.Contains(r.Reason, "capacity") {
		t.Errorf("reject: %+v, %v", r, err)
	}
	r, err = ParseResponse([]byte("bit 7 1 12"))
	if err != nil || r.Kind != RespBit || r.Bit.Index != 7 || !r.Bit.Bit || r.Bit.Measurements != 12 {
		t.Errorf("bit: %+v, %v", r, err)
	}
	r, err = ParseResponse([]byte("done 0110 corr=0.875 mpb=9.5"))
	if err != nil || r.Kind != RespDone || r.Bits != "0110" || r.Corr != 0.875 || r.MPB != 9.5 {
		t.Errorf("done: %+v, %v", r, err)
	}
	r, err = ParseResponse([]byte("done - corr=0 mpb=0"))
	if err != nil || r.Bits != "" {
		t.Errorf("empty done: %+v, %v", r, err)
	}
	r, err = ParseResponse([]byte("error uplink: push 3 timestamp goes backwards"))
	if err != nil || r.Kind != RespError || !strings.Contains(r.Reason, "backwards") {
		t.Errorf("error: %+v, %v", r, err)
	}
	for _, bad := range []string{"", "what 1", "ok", "bit 1", "done 012 corr=1 mpb=1", "done 01 huh=2"} {
		if _, err := ParseResponse([]byte(bad)); err == nil {
			t.Errorf("ParseResponse(%q) accepted", bad)
		}
	}
}
