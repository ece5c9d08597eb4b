package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"

	"repro/internal/csi"
	"repro/internal/uplink"
)

// ServeTCP accepts line-protocol connections on l until the listener
// closes (net.ErrClosed returns nil — the daemon's shutdown path closes
// the listener, then Drains). One goroutine per connection; admission is
// still the Server's — a connection whose hello loses the Open race gets
// an explicit reject line, never a hang.
func (srv *Server) ServeTCP(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !srv.addConn(conn) {
			// Drain already started: refuse explicitly.
			_, _ = conn.Write([]byte("reject " + ErrDraining.Error() + "\n"))
			_ = conn.Close()
			continue
		}
		go srv.handleConn(conn)
	}
}

// lineReader yields complete newline-terminated lines from a
// connection into a reused buffer. Unlike bufio.Scanner it never
// surfaces a trailing fragment without its terminator: a connection cut
// mid-line (chaos, tag brown-out) must not hand the parser a truncated
// prefix — "m 1.5 -42.7" cut to "m 1.5 -42" parses as a valid wrong
// measurement, which would silently diverge a resumed stream from the
// batch decode. Dropping the fragment is safe because the client counts
// only complete lines and re-sends from its acknowledged cursor.
type lineReader struct {
	br   *bufio.Reader
	line []byte
}

// maxLineLen bounds one protocol line (matches the former Scanner cap);
// readerSize is the pooled read buffer, and a line buffer grown past it
// is dropped on release rather than pinned in the pool.
const (
	maxLineLen = 1 << 20
	readerSize = 64 << 10
)

var lineReaders = sync.Pool{New: func() any {
	return &lineReader{br: bufio.NewReaderSize(nil, readerSize)}
}}

// newLineReader takes a pooled reader and points it at conn; release
// hands it back.
func newLineReader(conn net.Conn) *lineReader {
	lr := lineReaders.Get().(*lineReader)
	lr.br.Reset(conn)
	return lr
}

// release detaches the reader from its connection and returns it to the
// pool.
func (lr *lineReader) release() {
	lr.br.Reset(nil)
	if cap(lr.line) > readerSize {
		lr.line = nil
	}
	lineReaders.Put(lr)
}

// lineBuffered reports whether a complete line is already buffered, so
// the next scan returns without reading from the connection.
func (lr *lineReader) lineBuffered() bool {
	b, _ := lr.br.Peek(lr.br.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// scan reads the next complete line, stripping the terminator (and one
// trailing CR). It returns false on EOF, read error, deadline, or an
// oversized line — the caller treats all of these as end of input.
func (lr *lineReader) scan() bool {
	lr.line = lr.line[:0]
	for {
		frag, err := lr.br.ReadSlice('\n')
		lr.line = append(lr.line, frag...)
		if err == nil {
			lr.line = lr.line[:len(lr.line)-1]
			if n := len(lr.line); n > 0 && lr.line[n-1] == '\r' {
				lr.line = lr.line[:n-1]
			}
			return true
		}
		if err != bufio.ErrBufferFull || len(lr.line) > maxLineLen {
			return false
		}
	}
}

// handleConn runs one connection: hello (or resume) → session →
// measurement lines → flush (or EOF / idle timeout, both of which
// salvage the partial frame exactly like wbdecode does on a truncated
// pipe — except for a resumable session, which parks its checkpoint for
// a reconnect instead). The handler is the producer side; decoded bits
// flow back from the session's worker through a mutex-serialized
// connSink.
func (srv *Server) handleConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	defer srv.removeConn(conn)
	sink := &connSink{srv: srv, c: conn}
	lr := newLineReader(conn)
	defer lr.release()
	srv.stampReadDeadline(conn)
	if !lr.scan() {
		return
	}
	first := lr.line
	if len(first) >= 7 && string(first[:7]) == "resume " {
		srv.handleResume(conn, sink, lr, first)
		return
	}
	p, err := ParseHello(first)
	if err != nil {
		sink.reject(err)
		return
	}
	sess, err := srv.Open(p, sink)
	if err != nil {
		sink.reject(err)
		return
	}
	sess.SetCloser(conn)
	if p.Resumable {
		// Register as the wire producer before the ok line goes out: once
		// the client holds the token it may cut and resume at any moment,
		// and ResumeSession must always find this handler to drain.
		ch := sess.beginProducer()
		defer sess.endProducer(ch)
		sink.okResumable(sess.ID(), sess.Token(), 0, false)
	} else {
		sink.ok(sess.ID())
	}
	// The original connection produces under generation 0 by definition;
	// a resume on a newer connection bumps the generation and fences
	// this handler's pushes out.
	srv.serveSession(conn, sink, lr, sess, 0)
}

// handleResume re-attaches a cut client to its parked session: token
// lookup, transport steal, ok line + missed-bit replay under the
// checkpoint lock, then the normal measurement loop under the new
// producer generation.
func (srv *Server) handleResume(conn net.Conn, sink *connSink, lr *lineReader, line []byte) {
	token, have, err := ParseResume(line)
	if err != nil {
		sink.reject(err)
		return
	}
	sess, gen, err := srv.ResumeSession(token, conn)
	if err != nil {
		sink.reject(err)
		return
	}
	ch := sess.beginProducer()
	defer sess.endProducer(ch)
	info, err := sess.Attach(sink, have, func(info AttachInfo) {
		sink.okResumable(sess.ID(), sess.Token(), info.Consumed, info.Final)
	})
	if err != nil {
		sink.reject(err)
		return
	}
	if info.Final {
		// The recorded result was replayed under Attach; nothing left.
		return
	}
	srv.serveSession(conn, sink, lr, sess, gen)
}

// serveSession is the measurement loop shared by the hello and resume
// paths. The idle deadline is stamped only when the next line is not
// already buffered: a scan that finds its line in the buffer never reads
// the connection, and every scan that does read runs under a deadline
// stamped at its start, so a client still gets one line per IdleTimeout
// however slowly its bytes arrive.
func (srv *Server) serveSession(conn net.Conn, sink *connSink, lr *lineReader, sess *Session, gen uint32) {
	scratch := newScratch(sess.Params())
	resumable := sess.rs != nil
	for {
		if !lr.lineBuffered() {
			srv.stampReadDeadline(conn)
		}
		if !lr.scan() {
			break
		}
		line := lr.line
		if len(line) == 0 {
			continue
		}
		if len(line) == 5 && string(line) == "flush" {
			finishAndWait(sess)
			return
		}
		if err := ParseMeasurement(line, &scratch); err != nil {
			sink.control("error ", err.Error())
			finishAndWait(sess)
			return
		}
		if err := sess.pushAs(gen, scratch); err != nil {
			if resumable && sess.stolen(gen) {
				// A newer connection resumed this session mid-push; it is
				// not ours to finish, and waiting for its result would
				// hold this dead transport's handler hostage.
				return
			}
			// Poisoned or aborted: the worker delivers the error on the
			// sink; nothing more to read from this client.
			finishAndWait(sess)
			return
		}
	}
	// EOF, read error, or idle timeout.
	if resumable {
		if !sess.stolen(gen) {
			// The cut is what resume exists for: park the checkpoint and
			// keep the decoder state warm for the reconnect.
			sess.detachFrom(sink)
		}
		return
	}
	// Plain session: flush what arrived.
	finishAndWait(sess)
}

// finishAndWait ends the session's input and blocks until its worker has
// written the final response, so the deferred close cannot race the done
// line.
func finishAndWait(s *Session) {
	s.Finish()
	<-s.Done()
}

// stampReadDeadline arms the per-line idle deadline, when configured.
func (srv *Server) stampReadDeadline(conn net.Conn) {
	if srv.cfg.Now == nil || srv.cfg.IdleTimeout <= 0 {
		return
	}
	_ = conn.SetReadDeadline(srv.cfg.Now().Add(srv.cfg.IdleTimeout))
}

// newScratch builds one measurement of the session's declared shape, laid
// out like a ring slot, for the handler to parse into; Push copies it, so
// one scratch per connection suffices.
func newScratch(p SessionParams) csi.Measurement {
	r := slotRing{slots: make([]csi.Measurement, 1)}
	r.shape(p.Antennas, p.Subchannels)
	return r.slots[0]
}

// connSink writes a session's responses to its connection. Two
// goroutines write here — the handler (ok/reject/error control lines)
// and the session worker (bit/done lines) — so every write holds mu.
// The formatting paths reachable from the worker are allocation-free:
// one reused buffer, strconv appends, no fmt.
type connSink struct {
	srv *Server
	c   net.Conn
	mu  sync.Mutex
	buf []byte
}

// EmitBits implements Sink on the session worker's hot path.
func (cs *connSink) EmitBits(bits []uplink.BitDecision) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.buf = cs.buf[:0]
	for i := range bits {
		cs.buf = append(cs.buf, "bit "...)
		cs.buf = strconv.AppendInt(cs.buf, int64(bits[i].Index), 10)
		cs.buf = append(cs.buf, ' ')
		if bits[i].Bit {
			cs.buf = append(cs.buf, '1')
		} else {
			cs.buf = append(cs.buf, '0')
		}
		cs.buf = append(cs.buf, ' ')
		cs.buf = strconv.AppendInt(cs.buf, int64(bits[i].Measurements), 10)
		cs.buf = append(cs.buf, '\n')
	}
	return cs.write(cs.buf)
}

// EmitResult implements Sink; called once, at session end.
func (cs *connSink) EmitResult(res *uplink.Result, err error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.buf = cs.buf[:0]
	if err != nil {
		cs.buf = append(cs.buf, "error "...)
		cs.buf = append(cs.buf, err.Error()...)
		cs.buf = append(cs.buf, '\n')
		_ = cs.write(cs.buf)
		return
	}
	cs.buf = append(cs.buf, "done "...)
	if len(res.Payload) == 0 {
		cs.buf = append(cs.buf, '-')
	}
	for i := range res.Payload {
		if res.Payload[i] {
			cs.buf = append(cs.buf, '1')
		} else {
			cs.buf = append(cs.buf, '0')
		}
	}
	cs.buf = append(cs.buf, " corr="...)
	cs.buf = strconv.AppendFloat(cs.buf, res.PreambleCorrelation, 'g', -1, 64)
	cs.buf = append(cs.buf, " mpb="...)
	cs.buf = strconv.AppendFloat(cs.buf, res.MeasurementsPerBit, 'g', -1, 64)
	cs.buf = append(cs.buf, '\n')
	_ = cs.write(cs.buf)
}

// ok acknowledges the hello with the session id.
func (cs *connSink) ok(id uint64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.buf = cs.buf[:0]
	cs.buf = append(cs.buf, "ok "...)
	cs.buf = strconv.AppendUint(cs.buf, id, 10)
	cs.buf = append(cs.buf, '\n')
	_ = cs.write(cs.buf)
}

// okResumable acknowledges a resumable hello or resume with the token,
// the consumed-measurement cursor, and whether the result is already
// recorded. The id is zero-padded and the token fixed-width so the
// line's byte length does not depend on the session id — chaos
// schedules are compiled to absolute byte offsets and must see the same
// offsets whatever id the admission race assigned.
func (cs *connSink) okResumable(id uint64, token string, seq int64, final bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.buf = cs.buf[:0]
	cs.buf = append(cs.buf, "ok "...)
	cs.buf = appendPaddedUint(cs.buf, id, 8)
	cs.buf = append(cs.buf, " token="...)
	cs.buf = append(cs.buf, token...)
	cs.buf = append(cs.buf, " seq="...)
	cs.buf = strconv.AppendInt(cs.buf, seq, 10)
	if final {
		cs.buf = append(cs.buf, " fin=1"...)
	} else {
		cs.buf = append(cs.buf, " fin=0"...)
	}
	cs.buf = append(cs.buf, '\n')
	_ = cs.write(cs.buf)
}

// appendPaddedUint appends v zero-padded to at least width digits.
func appendPaddedUint(dst []byte, v uint64, width int) []byte {
	start := len(dst)
	dst = strconv.AppendUint(dst, v, 10)
	for len(dst)-start < width {
		dst = append(dst, '0')
		copy(dst[start+1:], dst[start:])
		dst[start] = '0'
	}
	return dst
}

// reject refuses a hello or resume; a RetryError's backoff hint goes on
// the wire machine-readably as "reject retry-after=<seconds> <reason>".
func (cs *connSink) reject(err error) {
	var re *RetryError
	if errors.As(err, &re) {
		cs.mu.Lock()
		defer cs.mu.Unlock()
		cs.buf = cs.buf[:0]
		cs.buf = append(cs.buf, "reject retry-after="...)
		cs.buf = strconv.AppendFloat(cs.buf, re.After.Seconds(), 'g', -1, 64)
		cs.buf = append(cs.buf, ' ')
		cs.buf = append(cs.buf, re.Err.Error()...)
		cs.buf = append(cs.buf, '\n')
		_ = cs.write(cs.buf)
		return
	}
	cs.control("reject ", err.Error())
}

// control writes a reject/error control line from the handler side.
func (cs *connSink) control(prefix, msg string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.buf = cs.buf[:0]
	cs.buf = append(cs.buf, prefix...)
	cs.buf = append(cs.buf, msg...)
	cs.buf = append(cs.buf, '\n')
	_ = cs.write(cs.buf)
}

// write sends one formatted response, arming the write deadline when the
// server has a clock (a client that stops reading fails its own session
// at the deadline instead of parking the worker forever).
func (cs *connSink) write(b []byte) error {
	if cs.srv.cfg.Now != nil && cs.srv.cfg.WriteTimeout > 0 {
		_ = cs.c.SetWriteDeadline(cs.srv.cfg.Now().Add(cs.srv.cfg.WriteTimeout))
	}
	_, err := cs.c.Write(b)
	if err != nil {
		return fmt.Errorf("serve: response write: %w", err)
	}
	return nil
}
