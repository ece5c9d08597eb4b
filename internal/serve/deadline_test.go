package serve_test

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// stampCountingListener hands out connections that count the read
// deadlines the server arms on them.
type stampCountingListener struct {
	net.Listener
	stamps atomic.Int64
}

func (l *stampCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stampCountingConn{Conn: c, stamps: &l.stamps}, nil
}

type stampCountingConn struct {
	net.Conn
	stamps *atomic.Int64
}

func (c *stampCountingConn) SetReadDeadline(t time.Time) error {
	c.stamps.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// TestTCPDeadlineArmedOnlyToWait pins that the idle deadline is armed
// only when the reader must wait for bytes: a session whose hello, lines
// and flush arrive in one write is read in a few large reads, and the
// deadline is stamped about once per read instead of once per line. The
// decode is still the batch decode.
func TestTCPDeadlineArmedOnlyToWait(t *testing.T) {
	const payloadLen = 12
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &stampCountingListener{Listener: inner}
	srv := serve.NewServer(serve.Config{IdleTimeout: time.Minute, Now: time.Now})
	go func() { _ = srv.ServeTCP(l) }()
	t.Cleanup(func() {
		_ = l.Close()
		_ = srv.Drain()
	})

	series := synthSeries(t, randomPayload(payloadLen, 51), 51)
	p := testParams(payloadLen)
	req := append(serve.AppendHello(nil, p), '\n')
	for _, m := range series.Measurements {
		req = append(serve.AppendMeasurement(req, m), '\n')
	}
	req = append(req, "flush\n"...)
	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	var got clientResult
	sc := bufio.NewScanner(conn)
	for sc.Scan() && !got.final {
		r, err := serve.ParseResponse(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		switch r.Kind {
		case serve.RespBit:
			got.bits = append(got.bits, r.Bit)
		case serve.RespDone, serve.RespError:
			got.done, got.final = r, true
		}
	}
	checkMatchesBatch(t, "one-write session", got.bits, got.done, batchDecode(t, series, payloadLen))
	// The flush line is the last one read, and the done line is written
	// after it, so every stamp of this session is counted by now.
	lines := series.Len() + 2
	const maxStamps = 16
	n := l.stamps.Load()
	t.Logf("%d lines in one write, %d read deadlines armed", lines, n)
	if n == 0 || n > maxStamps {
		t.Errorf("%d lines in one write armed the read deadline %d times, want 1 to %d", lines, n, maxStamps)
	}
}

// TestTCPIdleTimeoutPerLine pins that the idle deadline bounds a whole
// line, not the gap between reads: a client that sends half a line and
// stalls is cut at IdleTimeout, and so is one that keeps a line alive by
// sending it a byte at a time, each byte well inside IdleTimeout.
func TestTCPIdleTimeoutPerLine(t *testing.T) {
	const payloadLen = 8
	const idle = 100 * time.Millisecond
	series := synthSeries(t, randomPayload(payloadLen, 52), 52)
	_, addr := startTCP(t, serve.Config{IdleTimeout: idle, Now: time.Now})
	full := serve.AppendMeasurement(nil, series.Measurements[series.Len()/2])

	for _, c := range []struct {
		name string
		// line is sent after the hello's ok; gap > 0 sends it a byte at a
		// time, gap apart.
		line []byte
		gap  time.Duration
	}{
		{"half line then silence", full[:len(full)/2], 0},
		{"one byte every IdleTimeout/5", []byte("m " + strings.Repeat("1", 200)), idle / 5},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(append(serve.AppendHello(nil, testParams(payloadLen)), '\n')); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if ok, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(ok, "ok ") {
			t.Fatalf("%s: hello answered %q, %v", c.name, ok, err)
		}
		cut := make(chan struct{})
		go func() {
			// The server's final line, then EOF: the session was cut.
			_, _ = br.ReadString('\n')
			_, _ = br.ReadString('\n')
			close(cut)
		}()
		sent := 0
		if c.gap == 0 {
			_, _ = conn.Write(c.line)
			sent = len(c.line)
		}
	dribble:
		for ; sent < len(c.line); sent++ {
			select {
			case <-cut:
				break dribble
			case <-time.After(c.gap):
			}
			if _, err := conn.Write(c.line[sent : sent+1]); err != nil {
				break
			}
		}
		select {
		case <-cut:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the server never cut the connection", c.name)
		}
		if c.gap > 0 && sent >= len(c.line) {
			t.Errorf("%s: the server waited for the whole dribbled line", c.name)
		}
		_ = conn.Close()
	}
}
