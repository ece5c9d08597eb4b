// Package capture provides a compact binary trace format for simulated
// 802.11 transmissions, in the spirit of pcap: a Writer records every
// frame a Medium carries (with airtime, rate, and collision metadata) and
// a Reader replays the records for offline analysis or regression
// comparison of MAC behaviour.
//
// Format (little endian):
//
//	header:  magic "WBT1" | uint16 version | uint16 reserved
//	record:  float64 start | float64 end | uint8 rate Mbps |
//	         uint8 flags | uint32 frame length | frame bytes
//
// Frame bytes are the wire serialization (including FCS), so a trace is
// self-validating: Reader re-checks every frame's FCS on load.
package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/wifi"
)

// Magic identifies trace files.
var Magic = [4]byte{'W', 'B', 'T', '1'}

// Version of the format.
const Version uint16 = 1

// Record flags.
const (
	// FlagCollided marks simultaneous transmissions.
	FlagCollided = 1 << 0
	// FlagLost marks frames dropped at the intended receiver.
	FlagLost = 1 << 1
)

// maxFrameLen guards readers against corrupted length fields.
const maxFrameLen = 1 << 16

// Record is one captured transmission.
type Record struct {
	// Start and End bound the frame's time on air, in seconds.
	Start, End float64
	// Rate in Mbps.
	Rate wifi.Rate
	// Collided and Lost mirror the medium's transmission flags.
	Collided, Lost bool
	// Frame is the decoded frame.
	Frame wifi.Frame
}

// Errors.
var (
	ErrBadMagic   = errors.New("capture: bad magic")
	ErrBadVersion = errors.New("capture: unsupported version")
)

// Writer streams records to w.
type Writer struct {
	w       io.Writer
	started bool
	count   int
}

// NewWriter wraps w; the header is emitted lazily on the first record (or
// Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// writeHeader emits the file header once.
func (c *Writer) writeHeader() error {
	if c.started {
		return nil
	}
	c.started = true
	if _, err := c.w.Write(Magic[:]); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:], Version)
	_, err := c.w.Write(hdr[:])
	return err
}

// Write appends one record.
func (c *Writer) Write(rec *Record) error {
	if err := c.writeHeader(); err != nil {
		return err
	}
	wire := rec.Frame.Serialize()
	buf := make([]byte, 8+8+1+1+4+len(wire))
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(rec.Start))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(rec.End))
	buf[16] = byte(rec.Rate)
	var flags byte
	if rec.Collided {
		flags |= FlagCollided
	}
	if rec.Lost {
		flags |= FlagLost
	}
	buf[17] = flags
	binary.LittleEndian.PutUint32(buf[18:], uint32(len(wire)))
	copy(buf[22:], wire)
	if _, err := c.w.Write(buf); err != nil {
		return err
	}
	c.count++
	return nil
}

// Count returns the number of records written.
func (c *Writer) Count() int { return c.count }

// Flush makes sure the header exists even for an empty trace.
func (c *Writer) Flush() error { return c.writeHeader() }

// Attach registers the writer on a medium so every transmission is
// captured. Write errors surface through the returned error channel-free
// callback by recording the first error, retrievable via Err.
func (c *Writer) Attach(m *wifi.Medium) *AttachedWriter {
	aw := &AttachedWriter{w: c}
	m.AddListener(func(tx wifi.Transmission) {
		if aw.err != nil {
			return
		}
		aw.err = c.Write(&Record{
			Start:    tx.Start,
			End:      tx.End,
			Rate:     tx.Rate,
			Collided: tx.Collided,
			Lost:     tx.Lost,
			Frame:    tx.Frame,
		})
	})
	return aw
}

// AttachedWriter tracks a listener-driven capture.
type AttachedWriter struct {
	w   *Writer
	err error
}

// Err returns the first write error, if any.
func (a *AttachedWriter) Err() error { return a.err }

// Reader iterates a trace.
type Reader struct {
	r   io.Reader
	hdr bool
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// readHeader validates magic and version.
func (c *Reader) readHeader() error {
	if c.hdr {
		return nil
	}
	c.hdr = true
	var buf [8]byte
	if _, err := io.ReadFull(c.r, buf[:]); err != nil {
		return fmt.Errorf("capture: header: %w", err)
	}
	if [4]byte{buf[0], buf[1], buf[2], buf[3]} != Magic {
		return ErrBadMagic
	}
	if binary.LittleEndian.Uint16(buf[4:]) != Version {
		return ErrBadVersion
	}
	return nil
}

// Next returns the next record, or io.EOF at the end of the trace.
func (c *Reader) Next() (*Record, error) {
	if err := c.readHeader(); err != nil {
		return nil, err
	}
	var fixed [22]byte
	if _, err := io.ReadFull(c.r, fixed[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("capture: record header: %w", err)
	}
	rec := &Record{
		Start:    math.Float64frombits(binary.LittleEndian.Uint64(fixed[0:])),
		End:      math.Float64frombits(binary.LittleEndian.Uint64(fixed[8:])),
		Rate:     wifi.Rate(fixed[16]),
		Collided: fixed[17]&FlagCollided != 0,
		Lost:     fixed[17]&FlagLost != 0,
	}
	n := binary.LittleEndian.Uint32(fixed[18:])
	if n > maxFrameLen {
		return nil, fmt.Errorf("capture: frame length %d exceeds limit", n)
	}
	wire := make([]byte, n)
	if _, err := io.ReadFull(c.r, wire); err != nil {
		return nil, fmt.Errorf("capture: frame body: %w", err)
	}
	if err := rec.Frame.Decode(wire); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return rec, nil
}

// ReadAll drains the trace.
func (c *Reader) ReadAll() ([]*Record, error) {
	var out []*Record
	for {
		rec, err := c.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Stats summarizes a trace.
type Stats struct {
	Records    int
	Collided   int
	Lost       int
	Bytes      int
	AirTime    float64
	FirstStart float64
	LastEnd    float64
	ByType     map[wifi.FrameType]int
}

// Summarize computes trace statistics.
func Summarize(recs []*Record) Stats {
	s := Stats{ByType: make(map[wifi.FrameType]int)}
	for i, r := range recs {
		s.Records++
		if r.Collided {
			s.Collided++
		}
		if r.Lost {
			s.Lost++
		}
		s.Bytes += r.Frame.Length()
		s.AirTime += r.End - r.Start
		if i == 0 || r.Start < s.FirstStart {
			s.FirstStart = r.Start
		}
		if r.End > s.LastEnd {
			s.LastEnd = r.End
		}
		s.ByType[r.Frame.Header.Type]++
	}
	return s
}

// Utilization returns the fraction of the trace's span spent on air.
func (s Stats) Utilization() float64 {
	span := s.LastEnd - s.FirstStart
	if span <= 0 {
		return 0
	}
	return s.AirTime / span
}
