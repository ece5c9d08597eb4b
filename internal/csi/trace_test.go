package csi

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestTraceRoundTripExact(t *testing.T) {
	card := NewCard(DefaultModel(), rng.New(11))
	var measured Series
	for i := 0; i < 40; i++ {
		measured.Append(card.Measure(0.001*float64(i)+1/3.0, flatChannel(3, 30, 10)))
	}
	// The largest shape a dims line admits, every float at its longest
	// 'g' form: each row is longer than a fixed 1 MB line cap.
	in := rng.New(5)
	var largest Series
	for i := 0; i < 2; i++ {
		m := Measurement{Timestamp: float64(i) + in.Float64(), RSSI: make([]float64, maxAntennas), CSI: make([][]float64, maxAntennas)}
		for a := range m.CSI {
			m.RSSI[a] = -in.Float64() * 1e-200
			m.CSI[a] = make([]float64, maxSubchannels)
			for k := range m.CSI[a] {
				m.CSI[a][k] = -in.Float64() * 1e-200
			}
		}
		largest.Append(m)
	}
	for name, s := range map[string]*Series{"measured": &measured, "largest dims": &largest} {
		var buf bytes.Buffer
		if err := WriteSeries(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSeries(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Measurements, s.Measurements) {
			t.Fatalf("%s: round-tripped series differs from original", name)
		}
		// A second write must be byte-identical (goldens depend on it).
		var buf2 bytes.Buffer
		if err := WriteSeries(&buf2, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: re-serialization is not byte-stable", name)
		}
	}
	// The checked-in traces the eval goldens decode read and re-write to
	// the same bytes.
	for _, name := range checkedInTraces {
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ReadSeries(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got bytes.Buffer
		if err := WriteSeries(&got, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: re-written trace differs from the file", name)
		}
	}
}

// checkedInTraces are the recorded traces under eval's testdata.
var checkedInTraces = []string{
	"../eval/testdata/clean_5cm.wbtrace",
	"../eval/testdata/noisy_180cm.wbtrace",
}

func TestTraceRoundTripExtremeFloats(t *testing.T) {
	s := &Series{}
	s.Append(Measurement{
		Timestamp: math.Nextafter(1, 2),
		CSI:       [][]float64{{1e-308, 0.1 + 0.2}},
		RSSI:      []float64{-100.0000001},
	})
	var buf bytes.Buffer
	if err := WriteSeries(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Measurements, s.Measurements) {
		t.Fatal("shortest round-trip formatting lost precision")
	}
}

// malformedTraces are inputs ReadSeries must reject.
var malformedTraces = map[string]string{
	"empty":         "",
	"bad magic":     "nottrace 1\ndims 1 1\n",
	"missing dims":  "wbtrace 1\n",
	"bad dims":      "wbtrace 1\ndims x y\n",
	"huge dims":     "wbtrace 1\ndims 1000 9999\n",
	"short row":     "wbtrace 1\ndims 1 2\n0 1 2\n",
	"long row":      "wbtrace 1\ndims 1 1\n0 1 2 3\n",
	"non-numeric":   "wbtrace 1\ndims 1 1\n0 1 abc\n",
	"negative dims": "wbtrace 1\ndims -1 2\n",
	"tab-separated": "wbtrace 1\ndims 1 1\n0\t1\t2\n",
}

func TestReadSeriesRejectsMalformed(t *testing.T) {
	for name, in := range malformedTraces {
		if _, err := ReadSeries(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadSeries accepted malformed input", name)
		}
	}
	// A row's error names its line and field.
	in := "wbtrace 1\n# comment\ndims 1 1\n\n0 1 2\n0\t1 2\n"
	want := `csi: line 6: timestamp: strconv.ParseFloat: parsing "0\t1": invalid syntax`
	if _, err := ReadSeries(strings.NewReader(in)); err == nil || err.Error() != want {
		t.Errorf("ReadSeries(%q) = %v, want %s", in, err, want)
	}
}

func TestReadSeriesSkipsCommentsAndBlanks(t *testing.T) {
	in := "# recorded trace\n\nwbtrace 1\n# shape\ndims 1 1\n\n# data\n1.5 -40 7\n"
	s, err := ReadSeries(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Measurements[0].Timestamp != 1.5 ||
		s.Measurements[0].RSSI[0] != -40 || s.Measurements[0].CSI[0][0] != 7 {
		t.Fatalf("parsed %+v", s.Measurements)
	}
}

// FuzzReadSeries throws arbitrary input at ReadSeries. It must never
// panic, and a trace it accepts must re-write to a byte-stable form that
// reads back to the same float bits.
func FuzzReadSeries(f *testing.F) {
	for _, in := range malformedTraces {
		f.Add([]byte(in))
	}
	data, err := os.ReadFile(checkedInTraces[0])
	if err != nil {
		f.Fatal(err)
	}
	header, rows, _ := bytes.Cut(data, []byte("\n"))
	dims, rows, _ := bytes.Cut(rows, []byte("\n"))
	row, _, _ := bytes.Cut(rows, []byte("\n"))
	f.Add([]byte(fmt.Sprintf("%s\n# one row\n%s\n\n%s\n", header, dims, row)))
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ReadSeries(bytes.NewReader(in))
		if err != nil {
			return
		}
		var canon bytes.Buffer
		if err := WriteSeries(&canon, s); err != nil {
			t.Fatalf("accepted trace does not re-write: %v", err)
		}
		s2, err := ReadSeries(bytes.NewReader(canon.Bytes()))
		if err != nil {
			t.Fatalf("re-written trace %q does not read: %v", canon.Bytes(), err)
		}
		if got, want := seriesBits(s2), seriesBits(s); !slices.Equal(got, want) {
			t.Fatalf("re-read floats %x, read %x", got, want)
		}
		var again bytes.Buffer
		if err := WriteSeries(&again, s2); err != nil || !bytes.Equal(again.Bytes(), canon.Bytes()) {
			t.Fatalf("re-written trace unstable (%v): %q then %q", err, canon.Bytes(), again.Bytes())
		}
	})
}

// seriesBits lists every float of s as its IEEE bits, row by row in row
// order.
func seriesBits(s *Series) []uint64 {
	var out []uint64
	for _, m := range s.Measurements {
		out = append(out, math.Float64bits(m.Timestamp))
		for _, v := range m.RSSI {
			out = append(out, math.Float64bits(v))
		}
		for _, row := range m.CSI {
			for _, v := range row {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
}
