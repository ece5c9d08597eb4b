package csi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	// A row's error names its line and field. A row follows the bad one,
	// so the damage is not a truncated last row (TestTruncatedFinalRow).
	in := "wbtrace 1\n# comment\ndims 1 1\n\n0 1 2\n0\t1 2\n1 1 2\n"
	want := `csi: line 6: timestamp: strconv.ParseFloat: parsing "0\t1": invalid syntax`
	if _, err := ReadSeries(strings.NewReader(in)); err == nil || err.Error() != want {
		t.Errorf("ReadSeries(%q) = %v, want %s", in, err, want)
	}
}

// TestRowReaderHeaderErrors checks that NewRowReader itself refuses a
// header it cannot use, before any row is read, and says which part of
// the header is wrong.
func TestRowReaderHeaderErrors(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"empty", "", "csi: reading trace header: unexpected EOF"},
		{"comments only", "# a\n\n# b\n", "csi: reading trace header: unexpected EOF"},
		{"csv header", "timestamp,csi_a0_s0\n0,1\n", `csi: bad trace magic "timestamp,csi_a0_s0"`},
		{"no dims", "wbtrace 1\n# shape\n", "csi: reading trace dims: unexpected EOF"},
		{"row for dims", "wbtrace 1\n0 -40 1\n", `csi: bad dims line "0 -40 1": input does not match format`},
		{"too many antennas", fmt.Sprintf("wbtrace 1\ndims %d 1\n", maxAntennas+1), "csi: implausible dims"},
	} {
		rr, err := NewRowReader(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: NewRowReader accepted the header", tc.name)
			continue
		}
		if rr != nil {
			t.Errorf("%s: NewRowReader returned a reader with its error", tc.name)
		}
		if !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want prefix %q", tc.name, err, tc.want)
		}
		if errors.Is(err, ErrTruncatedRow) {
			t.Errorf("%s: a header error is not a truncated row: %v", tc.name, err)
		}
	}
}

// smallTrace is a 4-row 2×2 trace whose header carries two comments.
const smallTrace = "# recorded\nwbtrace 1\n# shape\ndims 2 2\n# data\n" +
	"0 -40 -41 1 2 3 4\n" +
	"0.001 -40 -41 2 2 3 4\n" +
	"0.002 -40 -41 3 2 3 4\n" +
	"0.003 -40 -41 4 2 3 4\n"

func TestRowReaderStreamsRows(t *testing.T) {
	rr, err := NewRowReader(strings.NewReader(smallTrace))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rr.Comments(), []string{"# recorded", "# shape"}; !slices.Equal(got, want) {
		t.Errorf("header comments %q, want %q", got, want)
	}
	m := rr.Measurement()
	if len(m.RSSI) != 2 || len(m.CSI) != 2 || len(m.CSI[1]) != 2 {
		t.Fatalf("measurement shape %d×%d, want 2×2", len(m.CSI), len(m.CSI[0]))
	}
	first := &m.CSI[0][0]
	for i := 0; ; i++ {
		err := rr.Next(&m)
		if err == io.EOF {
			if i != 4 {
				t.Errorf("read %d rows, want 4", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if m.Timestamp != 0.001*float64(i) || m.RSSI[1] != -41 || m.CSI[0][0] != float64(1+i) {
			t.Errorf("row %d parsed as %+v", i, m)
		}
		if &m.CSI[0][0] != first {
			t.Fatal("Next reallocated the caller's measurement")
		}
	}
}

func TestReadSeriesClonesRows(t *testing.T) {
	s, err := ReadSeries(strings.NewReader(smallTrace))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 || s.Antennas() != 2 || s.Subchannels() != 2 {
		t.Fatalf("read %d rows of %d×%d, want 4 of 2×2", s.Len(), s.Antennas(), s.Subchannels())
	}
	// Rows are clones, not views of the reader's reused measurement.
	if &s.Measurements[0].CSI[0][0] == &s.Measurements[1].CSI[0][0] || s.Measurements[0].CSI[0][0] != 1 {
		t.Error("rows share backing storage")
	}
}

// TestTruncatedFinalRow pins the pipe-cut contract: a final row cut
// mid-line is ErrTruncatedRow after every earlier row was delivered,
// while the same damage mid-trace is a plain *RowError, and a complete
// final row without a newline is an ordinary row.
func TestTruncatedFinalRow(t *testing.T) {
	lines := strings.Split(strings.TrimSuffix(smallTrace, "\n"), "\n")
	rows := lines[5:]
	header := strings.Join(lines[:5], "\n") + "\n"
	read := func(in string) (int, error) {
		rr, err := NewRowReader(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		m, n := rr.Measurement(), 0
		for {
			if err := rr.Next(&m); err != nil {
				if err == io.EOF {
					err = nil
				}
				return n, err
			}
			n++
		}
	}

	cut := header + strings.Join(rows[:3], "\n") + "\n" + rows[3][:8]
	n, err := read(cut)
	if !errors.Is(err, ErrTruncatedRow) {
		t.Fatalf("final-row cut: got %v, want ErrTruncatedRow", err)
	}
	if n != 3 {
		t.Errorf("delivered %d complete rows before the cut, want 3", n)
	}
	if _, err := ReadSeries(strings.NewReader(cut)); !errors.Is(err, ErrTruncatedRow) {
		t.Errorf("ReadSeries on a cut trace: %v", err)
	}

	bad := header + rows[0] + "\n" + rows[1][:8] + "\n" + rows[2] + "\n"
	n, err = read(bad)
	var rowErr *RowError
	if errors.Is(err, ErrTruncatedRow) || !errors.As(err, &rowErr) {
		t.Errorf("mid-trace damage: got %v, want a plain *RowError", err)
	}
	if n != 1 {
		t.Errorf("delivered %d rows before the damage, want 1", n)
	}

	if n, err := read(strings.TrimSuffix(smallTrace, "\n")); err != nil || n != 4 {
		t.Errorf("complete last row without a newline: %d rows, %v; want 4, nil", n, err)
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
	f.Add([]byte(fmt.Sprintf("%s\n%s\n%s\n%s", header, dims, row, row[:len(row)/2])))
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
