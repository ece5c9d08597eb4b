package csi

// Trace serialization: a plain-text, line-oriented codec for measurement
// series so recorded CSI/RSSI traces can be checked into testdata and
// decoded in regression tests. Floats are written with strconv's shortest
// round-trip formatting, so Read(Write(s)) reproduces the series exactly
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
// lines and lines starting with '#' are ignored.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// traceMagic identifies version 1 of the trace format.
const traceMagic = "wbtrace 1"

// maxAntennas and maxSubchannels bound a trace's dims line.
const maxAntennas, maxSubchannels = 64, 1024

// minLineLimit is the longest line ReadSeries accepts whatever the dims:
// headers and comments up to it always fit.
const minLineLimit = 1 << 20

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

// ReadSeries parses a wbtrace stream written by WriteSeries, each row by
// ParseRow into a fresh one-slab clone of a zero measurement of the dims'
// shape. A line may be minLineLimit bytes long, or twice the dims' widest
// row if that is longer.
func ReadSeries(r io.Reader) (*Series, error) {
	br, n := bufio.NewReaderSize(r, minLineLimit), 0
	// next returns the next non-blank, non-comment line, trimmed and valid
	// until the following call, or io.ErrUnexpectedEOF at the end. br's
	// buffer size is the longest line accepted.
	next := func() ([]byte, error) {
		for {
			line, err := br.ReadSlice('\n')
			switch {
			case err == io.EOF && len(line) == 0:
				return nil, io.ErrUnexpectedEOF
			case err == bufio.ErrBufferFull:
				return nil, fmt.Errorf("line %d is longer than %d bytes", n+1, br.Size())
			case err != nil && err != io.EOF:
				return nil, err
			}
			n++
			if line = bytes.TrimSpace(line); len(line) > 0 && line[0] != '#' {
				return line, nil
			}
		}
	}
	line, err := next()
	if err != nil {
		return nil, fmt.Errorf("csi: reading trace header: %w", err)
	}
	if string(line) != traceMagic {
		return nil, fmt.Errorf("csi: bad trace magic %q", line)
	}
	if line, err = next(); err != nil {
		return nil, fmt.Errorf("csi: reading trace dims: %w", err)
	}
	var ants, subs int
	if _, err := fmt.Sscanf(string(line), "dims %d %d", &ants, &subs); err != nil {
		return nil, fmt.Errorf("csi: bad dims line %q: %w", line, err)
	}
	if ants < 0 || subs < 0 || ants > maxAntennas || subs > maxSubchannels {
		return nil, fmt.Errorf("csi: implausible dims %d antennas × %d sub-channels", ants, subs)
	}
	// A 'g'/-1 float takes at most 24 bytes and a separator; twice that
	// leaves room for aligned rows. The wider reader takes over the bytes
	// the first one has buffered.
	br = bufio.NewReaderSize(br, 2*25*(1+ants+ants*subs))
	zero := Measurement{RSSI: make([]float64, ants), CSI: make([][]float64, ants)}
	for a := range zero.CSI {
		zero.CSI[a] = make([]float64, subs)
	}
	s := &Series{}
	for {
		line, err := next()
		if err == io.ErrUnexpectedEOF {
			return s, nil
		}
		if err != nil {
			return nil, fmt.Errorf("csi: reading trace: %w", err)
		}
		m := zero.Clone()
		if err := ParseRow(line, &m); err != nil {
			return nil, fmt.Errorf("csi: line %d: %w", n, err)
		}
		s.Append(m)
	}
}
