package chaosproxy

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// recorder is a one-connection upstream that records everything it
// receives until the client half-closes.
type recorder struct {
	l    net.Listener
	mu   sync.Mutex
	got  []byte
	done chan struct{}
}

func newRecorder(t *testing.T) *recorder {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &recorder{l: l, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			r.mu.Lock()
			r.got = append(r.got, buf[:n]...)
			r.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { _ = l.Close() })
	return r
}

func (r *recorder) addr() string { return r.l.Addr().String() }

func (r *recorder) wait(t *testing.T) []byte {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(5 * time.Second):
		t.Fatal("recorder never saw the connection end")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.got...)
}

func sched(t *testing.T, spec string) *faults.Schedule {
	t.Helper()
	s, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompileDeterministic pins the core property the chaos suite rests
// on: same (seed, spec, lane) compiles the identical event plan, while
// different lanes and directions draw independent plans.
func TestCompileDeterministic(t *testing.T) {
	cfg := Config{Schedule: sched(t, "burst@0:2x1;corrupt@1:3x0.8;stall@0:4x1;csidrop@0:4x0.6"), Seed: 42}
	a, err := New("unused:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("unused:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 3; lane++ {
		for _, dir := range []int{dirC2S, dirS2C} {
			ea, eb := a.compile(lane, dir), b.compile(lane, dir)
			if !reflect.DeepEqual(ea.events, eb.events) {
				t.Errorf("lane %d dir %d: plans differ across identically seeded proxies", lane, dir)
			}
			if len(ea.events) == 0 {
				t.Errorf("lane %d dir %d: schedule compiled to no events", lane, dir)
			}
		}
	}
	if reflect.DeepEqual(a.compile(0, dirC2S).events, a.compile(1, dirC2S).events) {
		t.Error("lanes 0 and 1 drew identical plans; lanes must be salted apart")
	}
	if reflect.DeepEqual(a.compile(0, dirC2S).events, a.compile(0, dirS2C).events) {
		t.Error("c2s and s2c drew identical plans; directions must be salted apart")
	}
	off := int64(-1)
	for _, ev := range a.compile(0, dirC2S).events {
		if ev.off < off {
			t.Fatalf("events not sorted by offset: %d after %d", ev.off, off)
		}
		off = ev.off
	}
}

// TestTransparentWhenEmpty pins that a nil schedule forwards bytes
// unchanged in both directions.
func TestTransparentWhenEmpty(t *testing.T) {
	up := newRecorder(t)
	p, err := New(up.addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := p.Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("hello wire\n"), 1000)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := up.wait(t); !bytes.Equal(got, msg) {
		t.Fatalf("transparent proxy altered the stream: got %d bytes, want %d", len(got), len(msg))
	}
}

// TestWriteCutDeliversPrefix pins cut semantics: a full-intensity burst
// cuts the connection at its compiled offset, everything before the
// offset is delivered (FIN, not RST), and the same lane's next
// connection continues past the cut.
func TestWriteCutDeliversPrefix(t *testing.T) {
	up := newRecorder(t)
	p, err := New(up.addr(), Config{Schedule: sched(t, "burst@0:1x1"), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lane := p.getLane(0)
	if len(lane.c2s.events) != 1 || lane.c2s.events[0].kind != opCut {
		t.Fatalf("expected exactly one cut event, got %+v", lane.c2s.events)
	}
	cutAt := lane.c2s.events[0].off

	conn, err := p.Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, int(cutAt)+500)
	for i := range payload {
		payload[i] = byte(i)
	}
	n, werr := conn.Write(payload)
	if !errors.Is(werr, ErrCut) {
		t.Fatalf("write past the cut offset returned %v, want ErrCut", werr)
	}
	if int64(n) != cutAt {
		t.Fatalf("cut delivered %d bytes, planned offset is %d", n, cutAt)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrCut) {
		t.Fatalf("write after cut returned %v, want ErrCut", err)
	}
	if got := up.wait(t); !bytes.Equal(got, payload[:cutAt]) {
		t.Fatalf("upstream saw %d bytes, want exactly the %d-byte prefix", len(got), cutAt)
	}

	// Reconnect on the same lane: the engine cursor sits at the cut
	// offset with no events left, so the new connection flows freely.
	up2 := newRecorder(t)
	p.upstream = up2.addr()
	conn2, err := p.Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	rest := []byte("resumed traffic")
	if _, err := conn2.Write(rest); err != nil {
		t.Fatalf("post-cut lane write: %v", err)
	}
	_ = conn2.Close()
	if got := up2.wait(t); !bytes.Equal(got, rest) {
		t.Fatalf("resumed lane delivered %q, want %q", got, rest)
	}
	st := p.Stats()
	// One cut planned per direction (the s2c one never fires: this test
	// only writes), one executed.
	if st.CutsPlanned != 2 || st.CutsExecuted != 1 {
		t.Errorf("stats cuts planned/executed = %d/%d, want 2/1", st.CutsPlanned, st.CutsExecuted)
	}
	if st.Conns != 2 || st.Lanes != 1 {
		t.Errorf("stats conns/lanes = %d/%d, want 2/1", st.Conns, st.Lanes)
	}
}

// TestWriteCorruptionHitsPlannedOffsets pins corruption: the upstream
// sees exactly the compiled XOR masks at the compiled offsets, and the
// caller's buffer is never mutated.
func TestWriteCorruptionHitsPlannedOffsets(t *testing.T) {
	up := newRecorder(t)
	p, err := New(up.addr(), Config{Schedule: sched(t, "corrupt@0:2x1"), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	lane := p.getLane(0)
	if len(lane.c2s.events) == 0 {
		t.Fatal("full-intensity corrupt window compiled to no events")
	}
	span := int64(2 * DefaultBytesPerSecond)
	payload := make([]byte, span)
	conn, err := p.Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	got := up.wait(t)
	if int64(len(got)) != span {
		t.Fatalf("upstream saw %d bytes, want %d", len(got), span)
	}
	for i := range payload {
		if payload[i] != 0 {
			t.Fatalf("caller's buffer mutated at offset %d", i)
		}
	}
	want := make([]byte, span)
	for _, ev := range lane.c2s.events {
		if ev.kind == opCorrupt && ev.off < span {
			want[ev.off] ^= ev.mask
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("upstream bytes do not match the compiled corruption plan")
	}
	if st := p.Stats(); st.CorruptDone == 0 || st.CorruptDone > st.CorruptPlanned {
		t.Errorf("corrupt done/planned = %d/%d", st.CorruptDone, st.CorruptPlanned)
	}
}

// TestReadCutTruncatesStream pins the s2c direction: a cut compiled on
// the read side truncates the inbound stream at its offset.
func TestReadCutTruncatesStream(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p, err := New(l.Addr().String(), Config{Schedule: sched(t, "burst@0:1x1"), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lane := p.getLane(0)
	if len(lane.s2c.events) != 1 {
		t.Fatalf("expected one s2c cut, got %+v", lane.s2c.events)
	}
	cutAt := lane.s2c.events[0].off
	total := int(cutAt) + 700
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = conn.Write(make([]byte, total))
	}()
	conn, err := p.Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := io.ReadAll(conn)
	if !errors.Is(rerr, ErrCut) {
		t.Fatalf("read past the cut returned %v, want ErrCut", rerr)
	}
	if int64(len(got)) != cutAt {
		t.Fatalf("read %d bytes before the cut, planned offset is %d", len(got), cutAt)
	}
}

// TestServeModeAssignsLanesInAcceptOrder drives the listener front end:
// two accepted connections map to lanes 0 and 1 and both round-trip
// through a transparent schedule to an echo upstream.
func TestServeModeAssignsLanesInAcceptOrder(t *testing.T) {
	echo, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		for {
			conn, err := echo.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(conn, conn)
				_ = conn.Close()
			}()
		}
	}()
	p, err := New(echo.Addr().String(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- p.Serve(front) }()
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", front.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("ping through the shim")
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		got, err := io.ReadAll(conn)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("conn %d echoed %q (%v), want %q", i, got, err, msg)
		}
		_ = conn.Close()
	}
	_ = front.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after listener close, want nil", err)
	}
	if st := p.Stats(); st.Lanes != 2 {
		t.Errorf("accept-order lanes = %d, want 2", st.Lanes)
	}
}

// TestSplitsAndStallsPaceTheStream pins that csidrop compiles to write
// splits and stall windows to pauses, both executed without data loss.
func TestSplitsAndStallsPaceTheStream(t *testing.T) {
	up := newRecorder(t)
	p, err := New(up.addr(), Config{
		Schedule:   sched(t, "csidrop@0:2x1;stall@0:2x1"),
		Seed:       5,
		StallScale: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lane := p.getLane(0)
	splits, stalls := 0, 0
	for _, ev := range lane.c2s.events {
		switch ev.kind {
		case opSplit:
			splits++
		case opStall:
			stalls++
		}
	}
	if splits == 0 || stalls == 0 {
		t.Fatalf("compiled %d splits and %d stalls, want both nonzero", splits, stalls)
	}
	// A read has no partial-write analogue, so the s2c plan holds none.
	for _, ev := range lane.s2c.events {
		if ev.kind == opSplit {
			t.Fatalf("s2c plan holds a split at offset %d", ev.off)
		}
	}
	span := 2 * DefaultBytesPerSecond
	payload := make([]byte, int(span))
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	conn, err := p.Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	if got := up.wait(t); !bytes.Equal(got, payload) {
		t.Fatalf("paced stream arrived altered: %d bytes, want %d intact", len(got), len(payload))
	}
	st := p.Stats()
	if st.SplitsExecuted == 0 || st.StallsExecuted == 0 {
		t.Errorf("splits/stalls executed = %d/%d, want both nonzero", st.SplitsExecuted, st.StallsExecuted)
	}
}

// TestRejectsInvalidSchedule pins up-front validation.
func TestRejectsInvalidSchedule(t *testing.T) {
	bad := &faults.Schedule{Windows: []faults.Window{{Kind: faults.Burst, Start: 2, End: 1, Intensity: 1}}}
	if _, err := New("unused:0", Config{Schedule: bad}); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}
