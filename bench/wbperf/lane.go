package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// pacer releases a lane's measurement lines on an open-loop schedule: the
// lane's k-th line is due at t0 + k/rate whatever the server does, so a
// stall delays every later line and that delay is counted. Each line's
// lateness — from when it was due to when the write carrying it began —
// goes into lag. A pacer with per == 0 sends everything at once (closed
// loop).
type pacer struct {
	now   func() time.Time
	sleep func(time.Duration)
	t0    time.Time
	per   float64 // nanoseconds between lines
	sent  int64   // lines released or skipped so far
	lag   hist
}

// due returns the due time of the lane's k-th line.
func (p *pacer) due(k int64) time.Time {
	return p.t0.Add(time.Duration(float64(k) * p.per))
}

// send writes the lines of buf (line i ends at ends[i]) to w as they come
// due, one write for every run of lines already due. It returns the
// lateness of line mark.
func (p *pacer) send(w io.Writer, buf []byte, ends []int, mark int) (time.Duration, error) {
	if p.per == 0 {
		p.sent += int64(len(ends))
		_, err := w.Write(buf)
		return 0, err
	}
	var markLag time.Duration
	for i := 0; i < len(ends); {
		now := p.now()
		j := i
		for j < len(ends) {
			d := p.due(p.sent)
			if d.After(now) {
				break
			}
			late := now.Sub(d)
			p.lag.add(int64(late))
			if j == mark {
				markLag = late
			}
			p.sent++
			j++
		}
		if j == i {
			p.sleep(p.due(p.sent).Sub(now))
			continue
		}
		lo := 0
		if i > 0 {
			lo = ends[i-1]
		}
		if _, err := w.Write(buf[lo:ends[j-1]]); err != nil {
			p.sent += int64(len(ends) - j)
			return markLag, err
		}
		i = j
	}
	return markLag, nil
}

// sessionRec is one replayed session as the load generator saw it.
type sessionRec struct {
	hello    time.Time     // hello written
	closeDue time.Time     // due time of the frame-closing line (open loop only)
	closeLag time.Duration // how late the frame-closing line was sent
	lastBit  time.Time     // last bit line received
	done     time.Time     // done or error line received
	lines    int           // measurement lines sent
	err      error         // nil when the response matched the reference byte for byte
}

// laneConfig is one load lane: a goroutine replaying captures as
// back-to-back sessions, one TCP connection each.
type laneConfig struct {
	addr  string
	caps  []*capture
	rate  float64 // measurement lines/s; 0 runs a closed loop
	now   func() time.Time
	sleep func(time.Duration)
	tr    *tracer
}

// ioTimeout bounds every read and write, so a wedged server fails a
// session instead of hanging the run.
const ioTimeout = 30 * time.Second

// loadResult is what load lanes measured. Sessions are folded in as they
// finish, so the generator's own memory does not grow with their number.
type loadResult struct {
	tally
	// lat is each session's latency in ms, +Inf when it failed: from the
	// due time of its frame-closing line to its last bit line in an open
	// loop, from hello sent to done received in a closed loop.
	lat []float64
	// closeLag is, in an open loop, how late each session's frame-closing
	// line was sent, in ms.
	closeLag []float64
	// lines counts the measurement lines of sessions that succeeded.
	lines   int
	lag     hist
	elapsed time.Duration
}

// add folds one finished session in.
func (l *loadResult) add(r sessionRec) {
	l.count(r.err)
	switch {
	case r.err != nil:
		l.lat = append(l.lat, math.Inf(1))
		return
	case r.closeDue.IsZero():
		l.lat = append(l.lat, ms(r.done.Sub(r.hello)))
	default:
		l.lat = append(l.lat, ms(r.lastBit.Sub(r.closeDue)))
		l.closeLag = append(l.closeLag, ms(r.closeLag))
	}
	l.lines += r.lines
}

// merge folds another lane's result in.
func (l *loadResult) merge(o *loadResult) {
	l.absorb(&o.tally)
	l.lat = append(l.lat, o.lat...)
	l.closeLag = append(l.closeLag, o.closeLag...)
	l.lines += o.lines
	l.lag.merge(&o.lag)
}

// runLane replays sessions from t0 until end. In a closed loop the next
// session starts when the previous one's done line arrives. In an open
// loop sessions follow the pacer's schedule: the next one starts as soon
// as the previous one's flush is written, so at most two connections per
// lane are open — one sending, one waiting for its done line.
func runLane(cfg laneConfig, lane, lanes int, t0, end time.Time) *loadResult {
	p := &pacer{now: cfg.now, sleep: cfg.sleep, t0: t0}
	if cfg.rate > 0 {
		p.per = 1e9 / cfg.rate
	}
	res := &loadResult{}
	var pending *replay
	collect := func() {
		if pending != nil {
			res.add(pending.wait(cfg.tr))
			pending = nil
		}
	}
	for i := 0; ; i++ {
		c := cfg.caps[(lane+i*lanes)%len(cfg.caps)]
		if cfg.rate > 0 && !p.due(p.sent).Before(end) || cfg.rate == 0 && !cfg.now().Before(end) {
			break
		}
		r := &replay{rec: sessionRec{lines: len(c.lineEnd)}, key: int64(lane + i*lanes)}
		if cfg.rate > 0 {
			r.rec.closeDue = p.due(p.sent + int64(c.closeAt))
		}
		r.start(cfg, c, p)
		collect()
		pending = r
		if cfg.rate == 0 {
			collect()
		}
	}
	collect()
	res.lag = p.lag
	return res
}

// replay is one session in flight: the lane writes it while a reader
// goroutine timestamps and checks the server's response.
type replay struct {
	key  int64
	rec  sessionRec
	conn net.Conn
	res  chan readResult
	werr error
}

type readResult struct {
	lastBit, done time.Time
	err           error
}

// start dials, starts the reader, and writes the whole session on the
// pacer's schedule.
func (r *replay) start(cfg laneConfig, c *capture, p *pacer) {
	conn, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		p.sent += int64(len(c.lineEnd))
		r.werr = err
		return
	}
	_ = conn.SetDeadline(cfg.now().Add(ioTimeout))
	r.conn = conn
	r.res = make(chan readResult, 1)
	go func() { r.res <- readResponse(conn, c, cfg.now) }()
	r.rec.hello = cfg.now()
	if _, r.werr = conn.Write(c.hello); r.werr != nil {
		p.sent += int64(len(c.lineEnd))
		return
	}
	if r.rec.closeLag, r.werr = p.send(conn, c.lines, c.lineEnd, c.closeAt); r.werr != nil {
		return
	}
	_, r.werr = conn.Write(flushLine)
}

// wait collects the reader's outcome, closes the connection, and traces
// the session from hello to done with its ingest-to-bit interval inside.
func (r *replay) wait(tr *tracer) sessionRec {
	if r.conn != nil {
		if r.werr != nil {
			_ = r.conn.Close() // unblock the reader
		}
		res := <-r.res
		_ = r.conn.Close()
		r.rec.lastBit, r.rec.done = res.lastBit, res.done
		r.rec.err = res.err
	}
	if r.werr != nil {
		r.rec.err = fmt.Errorf("sending session: %w", r.werr)
	}
	if r.rec.err == nil {
		id := tr.add("loadgen.session", 0, r.key, r.rec.hello, r.rec.done)
		if !r.rec.closeDue.IsZero() {
			tr.add("serve.tcp.ingest_to_bit", id, r.key, r.rec.closeDue, r.rec.lastBit)
		}
	}
	return r.rec
}

// readResponse reads one session's response: an ok line, then bytes that
// must equal c.want exactly (the bit lines, then the done line).
func readResponse(conn net.Conn, c *capture, now func() time.Time) readResult {
	var out readResult
	br := bufio.NewReaderSize(conn, 16<<10)
	line, err := br.ReadSlice('\n')
	if err != nil {
		out.err = fmt.Errorf("reading ok line: %w", err)
		return out
	}
	if !bytes.HasPrefix(line, []byte("ok ")) {
		out.err = fmt.Errorf("session refused: %q", bytes.TrimSpace(line))
		return out
	}
	got := make([]byte, 0, len(c.want))
	nbits := 0
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			out.err = fmt.Errorf("connection ended before the done line: %w", err)
			return out
		}
		got = append(got, line...)
		switch {
		case bytes.HasPrefix(line, []byte("bit ")):
			if nbits++; nbits == len(c.refBits) {
				out.lastBit = now()
			}
		case bytes.HasPrefix(line, []byte("done ")), bytes.HasPrefix(line, []byte("error ")):
			out.done = now()
			if !bytes.Equal(got, c.want) {
				out.err = fmt.Errorf("response differs from the batch decode:\n got %q\nwant %q", got, c.want)
			}
			return out
		}
	}
}

// runLoad runs lanes load lanes against addr for dur and waits for every
// session to finish. Open-loop lanes start half a session apart so their
// frame closes do not line up.
func runLoad(cfg laneConfig, lanes int, dur time.Duration) *loadResult {
	t0 := cfg.now()
	end := t0.Add(dur)
	per := make([]*loadResult, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		start := t0
		if cfg.rate > 0 {
			sessionDur := float64(len(cfg.caps[0].lineEnd)) / cfg.rate
			start = t0.Add(time.Duration(float64(l) / float64(lanes) * sessionDur * 1e9))
		}
		wg.Add(1)
		go func(l int, start time.Time) {
			defer wg.Done()
			per[l] = runLane(cfg, l, lanes, start, end)
		}(l, start)
	}
	wg.Wait()
	out := &loadResult{elapsed: cfg.now().Sub(t0)}
	for _, r := range per {
		out.merge(r)
	}
	return out
}
