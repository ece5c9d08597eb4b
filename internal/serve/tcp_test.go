package serve_test

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/csi"
	"repro/internal/serve"
	"repro/internal/uplink"
)

// startTCP brings up a server on a loopback listener and tears both down
// with the test.
func startTCP(t testing.TB, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(cfg)
	go func() {
		if err := srv.ServeTCP(l); err != nil {
			t.Errorf("ServeTCP: %v", err)
		}
	}()
	t.Cleanup(func() {
		_ = l.Close()
		_ = srv.Drain()
	})
	return srv, l.Addr().String()
}

// clientResult is what one protocol exchange produced.
type clientResult struct {
	bits  []uplink.BitDecision
	done  serve.Response
	final bool // a done or error line arrived
}

// runClient streams a capture over one connection and collects the
// responses. A nil series sends hello only.
func runClient(t *testing.T, addr string, p serve.SessionParams, series *csi.Series, flush bool) (clientResult, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	return speak(conn, p, series, flush)
}

// speak runs the client side of the protocol on an open connection.
func speak(conn net.Conn, p serve.SessionParams, series *csi.Series, flush bool) (clientResult, error) {
	var out clientResult
	buf := serve.AppendHello(nil, p)
	buf = append(buf, '\n')
	if _, err := conn.Write(buf); err != nil {
		return out, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		return out, fmt.Errorf("no response to hello: %v", sc.Err())
	}
	r, err := serve.ParseResponse(sc.Bytes())
	if err != nil {
		return out, err
	}
	if r.Kind != serve.RespOK {
		return out, fmt.Errorf("hello answered with %q", r.Reason)
	}
	if series != nil {
		for _, m := range series.Measurements {
			buf = serve.AppendMeasurement(buf[:0], m)
			buf = append(buf, '\n')
			if _, err := conn.Write(buf); err != nil {
				return out, fmt.Errorf("measurement write: %w", err)
			}
		}
	}
	if flush {
		if _, err := conn.Write([]byte("flush\n")); err != nil {
			return out, fmt.Errorf("flush write: %w", err)
		}
	}
	for sc.Scan() {
		r, err := serve.ParseResponse(sc.Bytes())
		if err != nil {
			return out, err
		}
		switch r.Kind {
		case serve.RespBit:
			out.bits = append(out.bits, r.Bit)
		case serve.RespDone, serve.RespError:
			out.done = r
			out.final = true
			return out, nil
		default:
			return out, fmt.Errorf("unexpected mid-session response kind %d", r.Kind)
		}
	}
	return out, fmt.Errorf("connection ended without a final line: %v", sc.Err())
}

// payloadString renders a batch result the way the done line does.
func payloadString(res *uplink.Result) string {
	var sb strings.Builder
	for _, b := range res.Payload {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// TestTCPSessionsMatchBatch64 is the load acceptance criterion: 64
// concurrent line-protocol sessions, each byte-identical to the batch
// decode of its capture.
func TestTCPSessionsMatchBatch64(t *testing.T) {
	const n = 64
	payloadLen := 12
	// Four distinct captures cycled across the fleet keep synthesis fast
	// while still decoding different payloads side by side.
	type capture struct {
		series *csi.Series
		want   *uplink.Result
	}
	caps := make([]capture, 4)
	for i := range caps {
		series := synthSeries(t, randomPayload(payloadLen, int64(100+i)), int64(100+i))
		caps[i] = capture{series: series, want: batchDecode(t, series, payloadLen)}
	}
	srv, addr := startTCP(t, serve.Config{MaxSessions: n, SessionBuffer: 64})

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := caps[i%len(caps)]
			got, err := runClient(t, addr, testParams(payloadLen), c.series, true)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if got.done.Kind != serve.RespDone {
				t.Errorf("client %d: final line was an error: %s", i, got.done.Reason)
				return
			}
			want := payloadString(c.want)
			if got.done.Bits != want {
				t.Errorf("client %d: done bits %s, batch decoded %s", i, got.done.Bits, want)
			}
			if len(got.bits) != payloadLen {
				t.Errorf("client %d: %d bit lines, want %d", i, len(got.bits), payloadLen)
				return
			}
			for _, b := range got.bits {
				if b.Bit != (want[b.Index] == '1') {
					t.Errorf("client %d: streamed bit %d disagrees with batch", i, b.Index)
				}
			}
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Accepted != n || st.Completed != n {
		t.Errorf("stats = %+v, want %d accepted and completed", st, n)
	}
	if st.BitsServed != int64(n*payloadLen) {
		t.Errorf("BitsServed = %d, want %d", st.BitsServed, n*payloadLen)
	}
}

// TestTCPFlushClosedFrameStreamsBits pins that a frame decoded by flush —
// the client's last line falls inside the frame — streams every bit line
// before the done line, the same bits a stream over the same lines emits
// and the payload batch DecodeCSI decodes from them.
func TestTCPFlushClosedFrameStreamsBits(t *testing.T) {
	const payloadLen = 12
	series := synthSeries(t, randomPayload(payloadLen, 41), 41)
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(testBitDur))
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream(testStart, payloadLen, uplink.StreamCSI)
	if err != nil {
		t.Fatal(err)
	}
	cut := &csi.Series{}
	for _, m := range series.Measurements {
		if m.Timestamp >= sd.End()-3*testBitDur {
			break
		}
		cut.Append(m)
	}
	for _, m := range cut.Measurements {
		if _, err := sd.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	if sd.Done() {
		t.Fatal("cut series closes the frame at a push; the test needs it to close at flush")
	}
	if _, err := sd.Flush(); err != nil {
		t.Fatal(err)
	}
	want := batchDecode(t, cut, payloadLen)

	srv, addr := startTCP(t, serve.Config{})
	got, err := runClient(t, addr, testParams(payloadLen), cut, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.done.Kind != serve.RespDone || got.done.Bits != payloadString(want) {
		t.Fatalf("final line %+v, want done with batch bits %s", got.done, payloadString(want))
	}
	if !reflect.DeepEqual(got.bits, sd.Bits()) {
		t.Errorf("bit lines %v, want the stream's %v", got.bits, sd.Bits())
	}
	if st := srv.Stats(); st.BitsServed != payloadLen {
		t.Errorf("BitsServed = %d, want %d", st.BitsServed, payloadLen)
	}
}

// TestTCPOverloadReject pins wire-level admission: the session past
// MaxSessions gets an explicit reject line, not a hang.
func TestTCPOverloadReject(t *testing.T) {
	_, addr := startTCP(t, serve.Config{MaxSessions: 1})
	holder, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = holder.Close() }()
	line := append(serve.AppendHello(nil, testParams(8)), '\n')
	if _, err := holder.Write(line); err != nil {
		t.Fatal(err)
	}
	hsc := bufio.NewScanner(holder)
	if !hsc.Scan() {
		t.Fatal("no hello response")
	}
	if r, err := serve.ParseResponse(hsc.Bytes()); err != nil || r.Kind != serve.RespOK {
		t.Fatalf("holder hello: %+v, %v", r, err)
	}

	if _, err := runClient(t, addr, testParams(8), nil, false); err == nil ||
		!strings.Contains(err.Error(), "capacity") {
		t.Errorf("second session = %v, want a capacity reject", err)
	}

	// Malformed hellos are also explicit rejects.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte("hello wbserve/1 dsss 100 1 8 2 4\n")); err != nil {
		t.Fatal(err)
	}
	csc := bufio.NewScanner(conn)
	if !csc.Scan() {
		t.Fatal("no response to malformed hello")
	}
	if r, err := serve.ParseResponse(csc.Bytes()); err != nil || r.Kind != serve.RespReject {
		t.Errorf("malformed hello answered %+v, %v", r, err)
	}
}

// TestTCPMalformedLinePoisonsOnlyThatSession runs a well-formed client
// concurrently with one that sends garbage mid-stream.
func TestTCPMalformedLinePoisonsOnlyThatSession(t *testing.T) {
	payloadLen := 12
	series := synthSeries(t, randomPayload(payloadLen, 55), 55)
	want := batchDecode(t, series, payloadLen)
	srv, addr := startTCP(t, serve.Config{})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		got, err := runClient(t, addr, testParams(payloadLen), series, true)
		if err != nil {
			t.Errorf("good client: %v", err)
			return
		}
		if got.done.Kind != serve.RespDone || got.done.Bits != payloadString(want) {
			t.Errorf("good client decoded %+v next to a poisoned neighbor", got.done)
		}
	}()
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer func() { _ = conn.Close() }()
		hello := append(serve.AppendHello(nil, testParams(payloadLen)), '\n')
		if _, err := conn.Write(hello); err != nil {
			t.Error(err)
			return
		}
		sc := bufio.NewScanner(conn)
		if !sc.Scan() {
			t.Error("no hello response")
			return
		}
		if _, err := conn.Write([]byte("m 1 not-a-number\n")); err != nil {
			t.Error(err)
			return
		}
		sawError := false
		for sc.Scan() {
			if r, err := serve.ParseResponse(sc.Bytes()); err == nil && r.Kind == serve.RespError {
				sawError = true
			}
		}
		if !sawError {
			t.Error("malformed line produced no error response")
		}
	}()
	wg.Wait()
	if st := srv.Stats(); st.Completed < 1 {
		t.Errorf("stats = %+v, want at least the good session completed", st)
	}
}

// TestTCPIdleTimeoutFlushes pins the idle deadline: a client that goes
// silent mid-frame still gets the salvaged decode, then the connection
// closes.
func TestTCPIdleTimeoutFlushes(t *testing.T) {
	payloadLen := 8
	series := synthSeries(t, randomPayload(payloadLen, 66), 66)
	_, addr := startTCP(t, serve.Config{
		IdleTimeout: 100 * time.Millisecond,
		Now:         time.Now,
	})
	half := &csi.Series{Measurements: series.Measurements[:series.Len()/2]}
	// No flush: the server's idle deadline must end the session for us.
	got, err := runClient(t, addr, testParams(payloadLen), half, false)
	if err != nil {
		t.Fatalf("silent client: %v", err)
	}
	if !got.final {
		t.Fatal("idle session ended without a final line")
	}
}

// TestTCPDrainUnderLoad drains while clients are mid-stream: every
// session must still get a final line and Drain must come back clean
// within its deadline.
func TestTCPDrainUnderLoad(t *testing.T) {
	const n = 8
	payloadLen := 12
	series := synthSeries(t, randomPayload(payloadLen, 77), 77)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{MaxSessions: n, DrainTimeout: 5 * time.Second})
	go func() { _ = srv.ServeTCP(l) }()

	started := make(chan struct{}, n)
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			// Signal readiness on every path so the drain never waits on
			// a client that failed to start.
			ready := false
			defer func() {
				if !ready {
					started <- struct{}{}
				}
			}()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				results <- err
				return
			}
			defer func() { _ = conn.Close() }()
			hello := append(serve.AppendHello(nil, testParams(payloadLen)), '\n')
			if _, err := conn.Write(hello); err != nil {
				results <- err
				return
			}
			sc := bufio.NewScanner(conn)
			if !sc.Scan() {
				results <- fmt.Errorf("no hello response")
				return
			}
			ready = true
			started <- struct{}{}
			// Stream slowly and forever; the drain interrupts us.
			var buf []byte
			i := 0
			for {
				m := series.Measurements[i%series.Len()]
				m.Timestamp = float64(i) * 0.001
				buf = serve.AppendMeasurement(buf[:0], m)
				buf = append(buf, '\n')
				if _, err := conn.Write(buf); err != nil {
					break // server stopped reading: drain reached us
				}
				i++
				time.Sleep(time.Millisecond)
			}
			// The final line must already be in flight or on the wire.
			for sc.Scan() {
				if r, err := serve.ParseResponse(sc.Bytes()); err == nil &&
					(r.Kind == serve.RespDone || r.Kind == serve.RespError) {
					results <- nil
					return
				}
			}
			results <- fmt.Errorf("drained session got no final line")
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	_ = l.Close()
	if err := srv.Drain(); err != nil {
		t.Errorf("Drain under load: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.Accepted != n {
		t.Errorf("accepted %d sessions, want %d", st.Accepted, n)
	}
	if st.Aborted != 0 {
		t.Errorf("drain aborted %d sessions; want graceful completion", st.Aborted)
	}
}
