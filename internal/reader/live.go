package reader

import (
	"fmt"

	"repro/internal/csi"
	"repro/internal/uplink"
)

// LiveSession decodes one uplink transmission online: measurements are
// pushed into an uplink.StreamDecoder as they are captured, so the
// payload is available the moment the frame closes — while the simulation
// (or a live capture) is still running — instead of after a batch pass
// over the full trace. Memory stays bounded: the stream decoder's arena
// holds only in-frame measurements, and the optional retained window is
// trimmed with csi.Series.TrimBefore as time advances.
//
// Wire it to a simulation with core's System.OnMeasurement:
//
//	ls, _ := reader.NewLiveSession(dec, start, payloadLen, uplink.StreamCSI, 0.5)
//	sys.OnMeasurement(ls.OnMeasurement)
//	sys.Run(until)
//	res, err := ls.Finish()
//
// The hook signature returns no error, so push failures (out-of-order
// timestamps, shape drift) are sticky: the first one is recorded, later
// measurements are dropped, and Finish surfaces it.
type LiveSession struct {
	sd        *uplink.StreamDecoder
	retention float64
	window    csi.Series
	err       error
}

// NewLiveSession builds a session decoding a transmission that starts at
// start with payloadLen bits. retention is how many seconds of trailing
// measurements to keep in Window for diagnostics; zero retains nothing.
func NewLiveSession(dec *uplink.Decoder, start float64, payloadLen int, mode uplink.StreamMode, retention float64) (*LiveSession, error) {
	if retention < 0 {
		return nil, fmt.Errorf("reader: retention must be non-negative, got %v", retention)
	}
	sd, err := dec.NewStream(start, payloadLen, mode)
	if err != nil {
		return nil, err
	}
	return &LiveSession{sd: sd, retention: retention}, nil
}

// OnMeasurement consumes one captured measurement. It matches the hook
// signature of core's System.OnMeasurement, so it can be subscribed
// directly. After the first push error the session is poisoned and
// further measurements are ignored; Err and Finish report the failure.
func (ls *LiveSession) OnMeasurement(m csi.Measurement) {
	if ls.err != nil {
		return
	}
	if ls.retention > 0 {
		// The measurement's slices belong to the capture pipeline; the
		// retained window needs its own copies.
		ls.window.Append(m.Clone())
		ls.window.TrimBefore(m.Timestamp - ls.retention)
	}
	if _, err := ls.sd.Push(m); err != nil {
		ls.err = err
	}
}

// Done reports whether the frame has closed and the payload is decoded;
// true before the trace ends whenever the capture extends past the frame.
func (ls *LiveSession) Done() bool { return ls.sd.Done() }

// Bits returns the decisions emitted so far: empty before the frame
// closes, every payload bit afterwards.
func (ls *LiveSession) Bits() []uplink.BitDecision { return ls.sd.Bits() }

// Err returns the first push error, or nil.
func (ls *LiveSession) Err() error { return ls.err }

// Window returns the retained trailing measurements (empty unless a
// retention was configured). The caller must not mutate it.
func (ls *LiveSession) Window() *csi.Series { return &ls.window }

// Finish flushes the stream and returns the decode result. Like the
// batch decoders it errors when no measurement fell inside the
// transmission window, and it surfaces any earlier push error.
func (ls *LiveSession) Finish() (*uplink.Result, error) {
	if ls.err != nil {
		return nil, ls.err
	}
	return ls.sd.Flush()
}
