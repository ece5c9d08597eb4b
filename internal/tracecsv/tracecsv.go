// Package tracecsv parses the CSV measurement schema cmd/wbtrace emits
// (and cmd/wbdecode consumes): one row per packet with a timestamp,
// optional tag_state ground truth, and either per-(antenna, sub-channel)
// CSI amplitudes (csi_a<A>_s<S> columns) or per-antenna RSSI (rssi_a<A>
// columns). It is the shared seam between every tool that replays traces
// — the offline decoder, the serving-layer load generator — so the column
// discovery and the truncation semantics live in exactly one place.
//
// Parser streams rows one at a time into a reused measurement, so callers
// hold one row regardless of trace length; ReadTrace materializes the
// whole trace for the paths that need it. A trace cut mid-row (a pipe
// whose producer died) surfaces as ErrTruncatedRow, distinguishable from
// genuine corruption: every complete row before the cut was already
// delivered, so callers can salvage the measurements they have.
package tracecsv

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/csi"
)

// ErrTruncatedRow reports a trace whose final row was cut mid-line — the
// signature of a pipe truncated while the producer was writing. All rows
// before the cut were parsed and delivered.
var ErrTruncatedRow = errors.New("tracecsv: trace truncated mid-row")

// chanCol maps one CSV column to a measurement lane.
type chanCol struct{ ant, sub, col int }

// Parser streams the wbtrace CSV schema one row at a time. The header is
// consumed at construction; Next fills a single reused measurement, so
// steady-state parsing does not allocate per row.
type Parser struct {
	cr       *csv.Reader
	tsCol    int
	stateCol int
	hasState bool
	csiCols  []chanCol
	rssiCols []chanCol
	m        csi.Measurement
}

// NewParser reads the header and discovers the measurement layout from
// the column names.
func NewParser(r io.Reader) (*Parser, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("tracecsv: reading header: %w", err)
	}
	col := map[string]int{}
	for i, name := range header {
		col[name] = i
	}
	tsCol, ok := col["timestamp"]
	if !ok {
		return nil, fmt.Errorf("tracecsv: trace has no timestamp column")
	}
	p := &Parser{cr: cr, tsCol: tsCol}
	p.stateCol, p.hasState = col["tag_state"]
	maxAnt, maxSub := -1, -1
	// Scan the header slice, not the column map: channel columns are
	// registered in file order, so nothing downstream inherits map
	// iteration order.
	for i, name := range header {
		var a, k int
		if n, _ := fmt.Sscanf(name, "csi_a%d_s%d", &a, &k); n == 2 {
			p.csiCols = append(p.csiCols, chanCol{a, k, i})
			if a > maxAnt {
				maxAnt = a
			}
			if k > maxSub {
				maxSub = k
			}
		} else if n, _ := fmt.Sscanf(name, "rssi_a%d", &a); n == 1 && strings.HasPrefix(name, "rssi_") {
			p.rssiCols = append(p.rssiCols, chanCol{a, 0, i})
			if a > maxAnt {
				maxAnt = a
			}
		}
	}
	if len(p.csiCols) == 0 && len(p.rssiCols) == 0 {
		return nil, fmt.Errorf("tracecsv: trace has neither csi_a*_s* nor rssi_a* columns")
	}
	// Pre-size the reused measurement to the discovered shape.
	p.m.CSI = make([][]float64, maxAnt+1)
	p.m.RSSI = make([]float64, maxAnt+1)
	for a := range p.m.CSI {
		if len(p.csiCols) > 0 {
			p.m.CSI[a] = make([]float64, maxSub+1)
		} else {
			p.m.CSI[a] = []float64{0}
		}
	}
	return p, nil
}

// HasState reports whether the trace carries a tag_state column.
func (p *Parser) HasState() bool { return p.hasState }

// Antennas returns the antenna count discovered from the header.
func (p *Parser) Antennas() int { return len(p.m.RSSI) }

// Subchannels returns the per-antenna sub-channel count (1 for an
// RSSI-only trace, where the CSI rows are single-slot placeholders).
func (p *Parser) Subchannels() int {
	if len(p.m.CSI) == 0 {
		return 0
	}
	return len(p.m.CSI[0])
}

// Next parses one row into the parser's reused measurement. The returned
// measurement and its slices are only valid until the following call —
// consumers that retain rows (ReadTrace) must clone. ok is false at EOF.
// A row cut mid-line at the end of the stream returns ErrTruncatedRow.
func (p *Parser) Next() (m csi.Measurement, state, ok bool, err error) {
	row, err := p.cr.Read()
	if err == io.EOF {
		return csi.Measurement{}, false, false, nil
	}
	if err != nil {
		return csi.Measurement{}, false, false, p.classify(err)
	}
	ts, err := strconv.ParseFloat(row[p.tsCol], 64)
	if err != nil {
		return csi.Measurement{}, false, false, p.classify(fmt.Errorf("tracecsv: bad timestamp %q: %w", row[p.tsCol], err))
	}
	p.m.Timestamp = ts
	if len(p.csiCols) > 0 {
		for _, c := range p.csiCols {
			v, err := strconv.ParseFloat(row[c.col], 64)
			if err != nil {
				return csi.Measurement{}, false, false, p.classify(fmt.Errorf("tracecsv: bad CSI value: %w", err))
			}
			p.m.CSI[c.ant][c.sub] = v
		}
	} else {
		for _, c := range p.rssiCols {
			v, err := strconv.ParseFloat(row[c.col], 64)
			if err != nil {
				return csi.Measurement{}, false, false, p.classify(fmt.Errorf("tracecsv: bad RSSI value: %w", err))
			}
			p.m.RSSI[c.ant] = v
		}
	}
	if p.hasState {
		state = row[p.stateCol] == "1"
	}
	return p.m, state, true, nil
}

// classify distinguishes a truncated trailing row from mid-trace
// corruption: if nothing follows the failing row, the cause is a cut
// pipe, and the caller may salvage everything already delivered.
func (p *Parser) classify(err error) error {
	if _, peekErr := p.cr.Read(); peekErr == io.EOF {
		return fmt.Errorf("%w: %v", ErrTruncatedRow, err)
	}
	return err
}

// Trace is a fully materialized CSV measurement trace.
type Trace struct {
	Series csi.Series
	// States is the per-packet tag state when the trace has a tag_state
	// column (ground truth from the simulator).
	States   []bool
	HasState bool
}

// ReadTrace reads the whole trace through a Parser, cloning each reused
// row into the series.
func ReadTrace(r io.Reader) (*Trace, error) {
	p, err := NewParser(r)
	if err != nil {
		return nil, err
	}
	tr := &Trace{HasState: p.hasState}
	for {
		m, state, ok, err := p.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		tr.Series.Append(m.Clone())
		if p.hasState {
			tr.States = append(tr.States, state)
		}
	}
	return tr, nil
}
