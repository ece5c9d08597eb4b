package serve_test

import (
	"errors"
	"net"
	"reflect"
	"testing"

	"repro/internal/csi"
	"repro/internal/serve"
	"repro/internal/uplink"
)

// shapedParams is testParams at a chosen mode and measurement shape.
func shapedParams(payloadLen int, mode uplink.StreamMode, ants, subs int) serve.SessionParams {
	p := testParams(payloadLen)
	p.Mode, p.Antennas, p.Subchannels = mode, ants, subs
	return p
}

// batchFor decodes a capture with the batch decoder the session's mode
// corresponds to.
func batchFor(t *testing.T, s *csi.Series, p serve.SessionParams) *uplink.Result {
	t.Helper()
	if p.Mode == uplink.StreamCSI {
		return batchDecode(t, s, p.PayloadLen)
	}
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(testBitDur))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.DecodeRSSI(s, testStart, p.PayloadLen)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkMatchesBatch compares one session's streamed bit lines and done
// line with the batch decode of its capture.
func checkMatchesBatch(t *testing.T, name string, bits []uplink.BitDecision, done serve.Response, want *uplink.Result) {
	t.Helper()
	if done.Kind != serve.RespDone {
		t.Errorf("%s: final line was not done: %q", name, done.Reason)
		return
	}
	if done.Bits != payloadString(want) || done.Corr != want.PreambleCorrelation || done.MPB != want.MeasurementsPerBit {
		t.Errorf("%s: done %s corr=%v mpb=%v, batch %s corr=%v mpb=%v", name,
			done.Bits, done.Corr, done.MPB, payloadString(want), want.PreambleCorrelation, want.MeasurementsPerBit)
	}
	if !reflect.DeepEqual(bitValues(bits), want.Payload) {
		t.Errorf("%s: bit lines %v, batch %v", name, bitValues(bits), want.Payload)
	}
}

// cutConn closes its connection once left bytes have been written,
// cutting the write that crosses the limit mid-way.
type cutConn struct {
	net.Conn
	left int
}

func (c *cutConn) Write(b []byte) (int, error) {
	if len(b) <= c.left {
		c.left -= len(b)
		return c.Conn.Write(b)
	}
	n, _ := c.Conn.Write(b[:c.left])
	c.left = 0
	_ = c.Conn.Close()
	return n, errors.New("connection cut")
}

// TestRingReuseMatchesBatch runs sessions of different shapes one after
// another on one server, so an Open can take the slot ring an earlier
// session returned, re-pointed to a new shape over slabs that still hold
// that session's values (a shape-poisoned session leaves a half-written
// slot behind). Every session must decode exactly as the batch decoder
// does. Then two live sessions must not share slot memory: a ring is
// never handed out twice.
func TestRingReuseMatchesBatch(t *testing.T) {
	const payloadLen = 12
	srv, addr := startTCP(t, serve.Config{SessionBuffer: 16})

	for i, c := range []struct {
		name       string
		mode       uplink.StreamMode
		ants, subs int
	}{
		{"csi3x30", uplink.StreamCSI, 3, 30},
		{"rssi3x1", uplink.StreamRSSI, 3, 1},
		{"csi2x5", uplink.StreamCSI, 2, 5},
	} {
		seed := int64(300 + i)
		series := synthShaped(t, randomPayload(payloadLen, seed), seed, c.ants, c.subs)
		p := shapedParams(payloadLen, c.mode, c.ants, c.subs)
		want := batchFor(t, series, p)
		got, err := runClient(t, addr, p, series, true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkMatchesBatch(t, c.name, got.bits, got.done, want)
	}

	// A shape violation in the last CSI row: copyInto has already written
	// the first rows of the slot when it fails.
	series := synthShaped(t, randomPayload(payloadLen, 310), 310, 3, 30)
	sink := newMemSink()
	sess, err := srv.Open(shapedParams(payloadLen, uplink.StreamCSI, 3, 30), sink)
	if err != nil {
		t.Fatal(err)
	}
	half := series.Measurements[:series.Len()/2]
	for _, m := range half {
		if err := sess.Push(m); err != nil {
			t.Fatalf("poisoned session: Push: %v", err)
		}
	}
	bad := half[len(half)-1]
	bad.CSI = [][]float64{bad.CSI[0], bad.CSI[1], bad.CSI[2][:29]}
	if err := sess.Push(bad); err == nil {
		t.Fatal("poisoned session: wrong-shape measurement accepted")
	}
	if _, err := sess.Result(); err == nil {
		t.Error("poisoned session completed cleanly")
	}
	want := batchDecode(t, series, payloadLen)
	if n := len(sink.bits); n > payloadLen || !reflect.DeepEqual(bitValues(sink.bits), want.Payload[:n]) {
		t.Errorf("poisoned session: bits %v are not a prefix of batch %v", bitValues(sink.bits), want.Payload)
	}

	// A resumable session whose first connection is cut mid-line halfway
	// through the capture: it parks, resumes on a new connection and
	// finishes.
	series = synthSeries(t, randomPayload(payloadLen, 311), 311)
	p := resumableParams(payloadLen)
	cutAt := len(serve.AppendHello(nil, p)) + 1 + 10
	for _, m := range series.Measurements[:series.Len()/2] {
		cutAt += len(serve.AppendMeasurement(nil, m)) + 1
	}
	dials := 0
	st, err := serve.Replay(func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		dials++
		if err != nil || dials > 1 {
			return c, err
		}
		return &cutConn{Conn: c, left: cutAt}, nil
	}, serve.ReplayOptions{Params: p, Measurements: series.Measurements})
	if err != nil {
		t.Fatalf("resumable session: %v", err)
	}
	if st.Resumes != 1 {
		t.Errorf("resumable session: %d resumes, want 1", st.Resumes)
	}
	checkMatchesBatch(t, "resumable", st.Bits, st.Done, batchDecode(t, series, payloadLen))
	// The cut's park precedes the resume; the park at finalize may still
	// be in flight when the client holds the done line.
	stats := srv.Stats()
	if stats.Poisoned != 1 || stats.Resumed != 1 || stats.ParkedTotal < 1 {
		t.Errorf("stats = %+v, want 1 poisoned, 1 resumed and the cut parked", stats)
	}

	// Two live sessions: the first takes the ring every session above
	// returned, in a shape it has not held since it was built.
	a, err := srv.Open(testParams(payloadLen), newMemSink())
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Open(shapedParams(payloadLen, uplink.StreamCSI, 3, 30), newMemSink())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*float64]bool)
	for _, s := range []*serve.Session{a, b} {
		p := s.Params()
		for i, m := range serve.Slots(s) {
			if len(m.RSSI) != p.Antennas || len(m.CSI) != p.Antennas {
				t.Fatalf("session %d slot %d: %d RSSI, %d CSI rows; declared %d antennas",
					s.ID(), i, len(m.RSSI), len(m.CSI), p.Antennas)
			}
			floats := [][]float64{m.RSSI}
			for _, row := range m.CSI {
				if len(row) != p.Subchannels {
					t.Fatalf("session %d slot %d: a %d-value CSI row; declared %d sub-channels",
						s.ID(), i, len(row), p.Subchannels)
				}
				floats = append(floats, row)
			}
			for _, f := range floats {
				for k := range f {
					if seen[&f[k]] {
						t.Fatal("two live sessions share slot memory")
					}
					seen[&f[k]] = true
				}
			}
		}
	}
	for _, s := range []*serve.Session{a, b} {
		s.Finish()
		_, _ = s.Result()
	}
}
