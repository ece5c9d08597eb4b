package csi

// Trace serialization: a plain-text, line-oriented codec for measurement
// series, the one format recorded traces are stored in: the eval goldens'
// testdata, cmd/wbtrace's output and cmd/wbdecode's and cmd/wbload's
// input. Floats are written with strconv's shortest round-trip
// formatting, so Read(Write(s)) reproduces the series exactly
// bit-for-bit — a requirement for golden-output tests.
//
// Format:
//
//	wbtrace 1
//	dims <antennas> <subchannels>
//	<timestamp> <rssi[0]> ... <rssi[A-1]> <csi[0][0]> ... <csi[A-1][S-1]>
//	...
//
// Each data line is one measurement row (AppendRow, ParseRow): CSI values
// are flattened antenna-major and fields are separated by spaces. Blank
// lines and lines starting with '#' are ignored; the '#' lines before the
// dims line are the header's comments (RowReader.Comments).

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// traceMagic identifies version 1 of the trace format.
const traceMagic = "wbtrace 1"

// maxAntennas and maxSubchannels bound a trace's dims line.
const maxAntennas, maxSubchannels = 64, 1024

// minLineLimit is the longest line a RowReader accepts whatever the dims:
// headers and comments up to it always fit.
const minLineLimit = 1 << 20

// ErrTruncatedRow reports a trace whose final row was cut mid-line — the
// signature of a pipe truncated while the producer was writing. Every row
// before the cut was parsed and delivered.
var ErrTruncatedRow = errors.New("csi: trace truncated mid-row")

// WriteSeries serializes s to w in the wbtrace text format.
func WriteSeries(w io.Writer, s *Series) error {
	if err := s.CheckShape(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\ndims %d %d\n", traceMagic, s.Antennas(), s.Subchannels())
	var buf []byte
	for _, m := range s.Measurements {
		buf = append(AppendRow(buf[:0], m), '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSeries parses a wbtrace stream written by WriteSeries, each row into
// its own one-slab measurement.
func ReadSeries(r io.Reader) (*Series, error) {
	rr, err := NewRowReader(r)
	if err != nil {
		return nil, err
	}
	return rr.ReadAll()
}

// RowReader reads a wbtrace stream one row at a time, so a consumer holds
// one row whatever the trace's length. A line may be minLineLimit bytes
// long, or twice the dims' widest row if that is longer.
type RowReader struct {
	br         *bufio.Reader
	n          int // lines read
	ants, subs int
	comments   []string
}

// NewRowReader reads r's magic and dims lines.
func NewRowReader(r io.Reader) (*RowReader, error) {
	rr := &RowReader{br: bufio.NewReaderSize(r, minLineLimit)}
	line, err := rr.next(&rr.comments)
	if err != nil {
		return nil, fmt.Errorf("csi: reading trace header: %w", err)
	}
	if string(line) != traceMagic {
		return nil, fmt.Errorf("csi: bad trace magic %q", line)
	}
	if line, err = rr.next(&rr.comments); err != nil {
		return nil, fmt.Errorf("csi: reading trace dims: %w", err)
	}
	if _, err := fmt.Sscanf(string(line), "dims %d %d", &rr.ants, &rr.subs); err != nil {
		return nil, fmt.Errorf("csi: bad dims line %q: %w", line, err)
	}
	if rr.ants < 0 || rr.subs < 0 || rr.ants > maxAntennas || rr.subs > maxSubchannels {
		return nil, fmt.Errorf("csi: implausible dims %d antennas × %d sub-channels", rr.ants, rr.subs)
	}
	// A 'g'/-1 float takes at most 24 bytes and a separator; twice that
	// leaves room for aligned rows. The wider reader takes over the bytes
	// the first one has buffered.
	rr.br = bufio.NewReaderSize(rr.br, 2*25*(1+rr.ants+rr.ants*rr.subs))
	return rr, nil
}

// next returns the next non-blank, non-comment line, trimmed and valid
// until the following call, or io.ErrUnexpectedEOF at the end. It appends
// each comment it passes to comments unless that is nil. br's buffer size
// is the longest line accepted.
func (rr *RowReader) next(comments *[]string) ([]byte, error) {
	for {
		line, err := rr.br.ReadSlice('\n')
		switch {
		case err == io.EOF && len(line) == 0:
			return nil, io.ErrUnexpectedEOF
		case err == bufio.ErrBufferFull:
			return nil, fmt.Errorf("line %d is longer than %d bytes", rr.n+1, rr.br.Size())
		case err != nil && err != io.EOF:
			return nil, err
		}
		rr.n++
		line = bytes.TrimSpace(line)
		if len(line) > 0 && line[0] != '#' {
			return line, nil
		}
		if len(line) > 0 && comments != nil {
			*comments = append(*comments, string(line))
		}
	}
}

// Comments returns the header's '#' lines, those before the dims line,
// each trimmed of surrounding space.
func (rr *RowReader) Comments() []string { return rr.comments }

// Measurement returns a zero measurement of the dims' shape in one slab,
// for Next to parse rows into.
func (rr *RowReader) Measurement() Measurement {
	m := Measurement{RSSI: make([]float64, rr.ants), CSI: make([][]float64, rr.ants)}
	for a := range m.CSI {
		m.CSI[a] = make([]float64, rr.subs)
	}
	return m.Clone()
}

// Next parses the next row into m, which has the dims' shape (see
// Measurement), by ParseRow. It returns io.EOF after the last row. A row
// that fails to parse is an error naming its line; when nothing follows
// it, the error wraps ErrTruncatedRow too. A complete last row without a
// newline is an ordinary row.
func (rr *RowReader) Next(m *Measurement) error {
	line, err := rr.next(nil)
	if err == io.ErrUnexpectedEOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("csi: reading trace: %w", err)
	}
	if err := ParseRow(line, m); err != nil {
		n := rr.n
		if _, peek := rr.next(nil); peek == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: line %d: %w", ErrTruncatedRow, n, err)
		}
		return fmt.Errorf("csi: line %d: %w", n, err)
	}
	return nil
}

// ReadAll reads every remaining row, each into its own one-slab
// measurement.
func (rr *RowReader) ReadAll() (*Series, error) {
	s, m := &Series{}, rr.Measurement()
	for {
		if err := rr.Next(&m); err == io.EOF {
			return s, nil
		} else if err != nil {
			return nil, err
		}
		s.Append(m.Clone())
	}
}
