// Package chaosproxy is the wire-level chaos harness: a fault-injecting
// TCP shim that compiles internal/faults schedules into connection
// drops, partial writes, stalls, and byte corruption on a live
// wbserve/1 connection. It is the serving layer's analogue of the
// simulator's fault injector — the same declarative Schedule, the same
// salted trial streams — so a chaos run is exactly as reproducible as a
// faulted simulation: one (seed, spec) pair pins every cut offset and
// corrupted byte.
//
// Determinism is by construction. Each lane (one logical client stream,
// persistent across its reconnects) compiles the schedule ONCE per
// direction into a sorted list of absolute byte-offset events, drawing
// only from rng.TrialSeed(seed, lane⊕direction) at compile time; the
// runtime applies events purely by how many bytes have passed, so the
// outcome is independent of TCP segmentation, goroutine scheduling, and
// worker count. Window times are virtual wire time: second t of a
// window maps to byte offset t·BytesPerSecond of that lane-direction's
// delivered stream.
//
// Kind mapping (wire semantics of the shared schedule vocabulary):
//
//	Burst   → connection cut at a drawn offset inside the window
//	          (probability = intensity), FIN-style so delivered bytes
//	          stay delivered
//	Corrupt → XOR a drawn mask into ~intensity-scaled bytes
//	Stall   → pause the stream at a drawn offset (intensity-scaled)
//	CSIDrop → split a client write at drawn offsets (partial-write
//	          torture); reads have no analogue, so s2c plans none
//	Fade/Drift have no wire analogue and are ignored here.
package chaosproxy

import (
	"errors"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/rng"
)

// ErrCut is returned by reads and writes on a connection the schedule
// has cut.
var ErrCut = errors.New("chaosproxy: connection cut by schedule")

// Defaults for Config's zero fields.
const (
	// DefaultBytesPerSecond maps schedule seconds onto wire bytes.
	DefaultBytesPerSecond = 4096
	// DefaultStallScale is the real-time pause a full-intensity Stall
	// event inflicts (kept small: chaos suites run under -race in CI).
	DefaultStallScale = 2 * time.Millisecond
)

// Config parameterizes a Proxy.
type Config struct {
	// Schedule is the fault plan; nil or empty is a transparent proxy.
	Schedule *faults.Schedule
	// Seed salts the per-lane trial streams (same convention as the
	// simulator's -seed).
	Seed int64
	// BytesPerSecond maps a window's [Start,End) seconds onto byte
	// offsets of each lane-direction stream. Zero means
	// DefaultBytesPerSecond.
	BytesPerSecond float64
	// StallScale scales Stall event pauses. Zero means
	// DefaultStallScale.
	StallScale time.Duration
}

func (c Config) bytesPerSecond() float64 {
	if c.BytesPerSecond <= 0 {
		return DefaultBytesPerSecond
	}
	return c.BytesPerSecond
}

func (c Config) stallScale() time.Duration {
	if c.StallScale <= 0 {
		return DefaultStallScale
	}
	return c.StallScale
}

// Stats counts compiled (planned) and applied (executed) events across
// all lanes. Planned counts depend only on (seed, spec, lane set);
// executed counts additionally depend on how many bytes actually flowed
// through each lane: per-lane deterministic for a client whose reads
// stop at protocol boundaries, as serve.Replay's do, so a cut never
// strands bytes it read ahead.
type Stats struct {
	Lanes, Conns                  int64
	CutsPlanned, CutsExecuted     int64
	CorruptPlanned, CorruptDone   int64
	StallsPlanned, StallsExecuted int64
	SplitsPlanned, SplitsExecuted int64
}

// Proxy injects a compiled fault schedule between clients and one
// upstream address. Use Dial for in-process lane-addressed clients
// (cmd/wbload, tests) or Serve to stand it up in front of a listener
// (lanes assigned in accept order).
type Proxy struct {
	upstream string
	cfg      Config

	mu    sync.Mutex
	lanes map[int]*lane
	next  int // next accept-order lane id (Serve mode)

	nLanes, nConns                atomic.Int64
	cutsPlanned, cutsExecuted     atomic.Int64
	corruptPlanned, corruptDone   atomic.Int64
	stallsPlanned, stallsExecuted atomic.Int64
	splitsPlanned, splitsExecuted atomic.Int64
}

// New builds a proxy forwarding to upstream (host:port). The schedule
// is validated up front; nil means transparent.
func New(upstream string, cfg Config) (*Proxy, error) {
	if !cfg.Schedule.Empty() {
		if err := cfg.Schedule.Validate(); err != nil {
			return nil, err
		}
	}
	return &Proxy{upstream: upstream, cfg: cfg, lanes: make(map[int]*lane)}, nil
}

// Stats snapshots the event accounting.
func (p *Proxy) Stats() Stats {
	return Stats{
		Lanes:          p.nLanes.Load(),
		Conns:          p.nConns.Load(),
		CutsPlanned:    p.cutsPlanned.Load(),
		CutsExecuted:   p.cutsExecuted.Load(),
		CorruptPlanned: p.corruptPlanned.Load(),
		CorruptDone:    p.corruptDone.Load(),
		StallsPlanned:  p.stallsPlanned.Load(),
		StallsExecuted: p.stallsExecuted.Load(),
		SplitsPlanned:  p.splitsPlanned.Load(),
		SplitsExecuted: p.splitsExecuted.Load(),
	}
}

// lane is one logical client stream: its two direction engines persist
// across the lane's reconnects, so a resumed connection continues at
// the byte offset where the cut happened and marches into the
// schedule's later windows.
type lane struct {
	c2s, s2c *dirEngine
}

// Direction salts: each lane-direction gets an independent rng stream.
const (
	dirC2S = 0
	dirS2C = 1
)

func (p *Proxy) getLane(id int) *lane {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.lanes[id]; ok {
		return l
	}
	l := &lane{
		c2s: p.compile(id, dirC2S),
		s2c: p.compile(id, dirS2C),
	}
	p.lanes[id] = l
	p.nLanes.Add(1)
	return l
}

// Dial opens one chaos-shimmed connection to the upstream on the given
// lane. Reconnecting on the same lane continues that lane's schedule
// cursor — which is what lets a cut-every-connection schedule still
// make progress: the resumed connection starts past the cut offset.
func (p *Proxy) Dial(laneID int) (net.Conn, error) {
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		return nil, err
	}
	p.nConns.Add(1)
	return &chaosConn{Conn: up, p: p, lane: p.getLane(laneID)}, nil
}

// Serve proxies accepted connections to the upstream until the listener
// closes, assigning lanes in accept order. Each side's bytes flow
// through the lane's direction engines exactly as with Dial.
func (p *Proxy) Serve(l net.Listener) error {
	for {
		client, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		p.mu.Lock()
		id := p.next
		p.next++
		p.mu.Unlock()
		go p.pipe(client, id)
	}
}

// pipe runs one Serve-mode connection: dial upstream through the chaos
// shim and copy both directions until either side ends.
func (p *Proxy) pipe(client net.Conn, laneID int) {
	defer func() { _ = client.Close() }()
	shim, err := p.Dial(laneID)
	if err != nil {
		return
	}
	defer func() { _ = shim.Close() }()
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(shim, client) // client → upstream through c2s engine
		if cw, ok := shim.(*chaosConn); ok {
			cw.closeWriteUpstream()
		}
		close(done)
	}()
	_, _ = io.Copy(client, shim) // upstream → client through s2c engine
	if cw, ok := client.(*net.TCPConn); ok {
		_ = cw.CloseWrite()
	}
	<-done
}

// Event opcodes.
const (
	opCut = iota
	opCorrupt
	opStall
	opSplit
)

// wireEvent is one compiled fault at an absolute byte offset of a
// lane-direction stream.
type wireEvent struct {
	off   int64
	kind  uint8
	seq   int // compile order, stable sort tiebreak
	mask  byte
	stall time.Duration
}

// dirEngine owns one lane-direction's compiled events and byte cursor.
// The cursor advances only with delivered bytes and persists across the
// lane's reconnects; bytes drained after a cut are lost on the wire and
// do not advance it.
type dirEngine struct {
	mu     sync.Mutex
	events []wireEvent
	next   int
	off    int64
}

// compile draws the lane-direction's events from its salted trial
// stream. All draws happen here, once, at first use of the lane — the
// runtime path consumes no randomness at all.
func (p *Proxy) compile(laneID, dir int) *dirEngine {
	e := &dirEngine{}
	if p.cfg.Schedule.Empty() {
		return e
	}
	bps := p.cfg.bytesPerSecond()
	stream := rng.New(rng.TrialSeed(p.cfg.Seed, 2*laneID+dir))
	seq := 0
	for _, w := range p.cfg.Schedule.Windows {
		span := w.End - w.Start
		at := func(frac float64) int64 {
			return int64((w.Start + frac*span) * bps)
		}
		switch w.Kind {
		case faults.Burst:
			gate := stream.Float64()
			pos := stream.Float64()
			if gate < w.Intensity {
				e.events = append(e.events, wireEvent{off: at(pos), kind: opCut, seq: seq})
				seq++
				p.cutsPlanned.Add(1)
			}
		case faults.Corrupt:
			n := int(w.Intensity * span * bps / 256)
			if n > 1024 {
				n = 1024
			}
			for i := 0; i < n; i++ {
				pos := stream.Float64()
				mask := byte(1 + stream.Intn(255))
				e.events = append(e.events, wireEvent{off: at(pos), kind: opCorrupt, seq: seq, mask: mask})
				seq++
				p.corruptPlanned.Add(1)
			}
		case faults.Stall:
			gate := stream.Float64()
			pos := stream.Float64()
			if gate < w.Intensity {
				d := time.Duration(w.Intensity * float64(p.cfg.stallScale()))
				e.events = append(e.events, wireEvent{off: at(pos), kind: opStall, seq: seq, stall: d})
				seq++
				p.stallsPlanned.Add(1)
			}
		case faults.CSIDrop:
			n := int(w.Intensity * span * bps / 512)
			if n > 4096 {
				n = 4096
			}
			for i := 0; i < n; i++ {
				pos := stream.Float64()
				if dir == dirS2C {
					// A read has no partial-write analogue: draw the
					// offset (later windows keep their plan) but plan
					// nothing.
					continue
				}
				e.events = append(e.events, wireEvent{off: at(pos), kind: opSplit, seq: seq})
				seq++
				p.splitsPlanned.Add(1)
			}
		}
	}
	sort.Slice(e.events, func(i, j int) bool {
		if e.events[i].off != e.events[j].off {
			return e.events[i].off < e.events[j].off
		}
		return e.events[i].seq < e.events[j].seq
	})
	return e
}

// chaosConn is one shimmed connection. Its engines belong to the lane
// and outlive it; the cut flag is per connection.
type chaosConn struct {
	net.Conn
	p    *Proxy
	lane *lane

	cut  atomic.Bool
	wmu  sync.Mutex // serializes Write against itself
	rmu  sync.Mutex // serializes Read against itself
	wbuf []byte     // owned copy when corruption must touch caller bytes
}

// Write applies the c2s engine: forwards b to the upstream, splitting,
// stalling, corrupting, or cutting at compiled offsets.
func (c *chaosConn) Write(b []byte) (int, error) {
	if c.cut.Load() {
		return 0, ErrCut
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.apply(c.lane.c2s, b)
}

// Read applies the s2c engine to bytes already delivered by the
// upstream: corruption mutates them in place, a cut truncates at the
// offset and kills the connection, stalls pace the stream.
func (c *chaosConn) Read(b []byte) (int, error) {
	if c.cut.Load() {
		return 0, ErrCut
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	n, err := c.Conn.Read(b)
	if n == 0 {
		return n, err
	}
	e := c.lane.s2c
	e.mu.Lock()
	kept := n
	for e.next < len(e.events) && e.events[e.next].off < e.off+int64(kept) {
		ev := e.events[e.next]
		k := int(ev.off - e.off)
		switch ev.kind {
		case opCorrupt:
			b[k] ^= ev.mask
			c.p.corruptDone.Add(1)
		case opStall:
			c.p.stallsExecuted.Add(1)
			time.Sleep(ev.stall)
		case opCut:
			kept = k
			e.next++
			e.off += int64(kept)
			e.mu.Unlock()
			c.cutNow()
			if kept == 0 {
				return 0, ErrCut
			}
			return kept, nil
		}
		e.next++
	}
	e.off += int64(kept)
	e.mu.Unlock()
	return kept, err
}

// apply runs the write path through a direction engine.
func (c *chaosConn) apply(e *dirEngine, b []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	written := 0
	owned := false
	for len(b) > 0 {
		if c.cut.Load() {
			return written, ErrCut
		}
		// Find the next event inside this chunk.
		var ev *wireEvent
		if e.next < len(e.events) && e.events[e.next].off < e.off+int64(len(b)) {
			ev = &e.events[e.next]
		}
		if ev == nil {
			n, err := c.Conn.Write(b)
			e.off += int64(n)
			return written + n, err
		}
		k := int(ev.off - e.off)
		switch ev.kind {
		case opCorrupt:
			if !owned {
				// Never mutate the caller's buffer: copy the remainder once.
				c.wbuf = append(c.wbuf[:0], b...)
				b = c.wbuf
				owned = true
			}
			b[k] ^= ev.mask
			c.p.corruptDone.Add(1)
			e.next++
		case opSplit:
			n, err := c.Conn.Write(b[:k])
			e.off += int64(n)
			written += n
			if err != nil {
				return written, err
			}
			b = b[k:]
			if owned {
				c.wbuf = c.wbuf[k:]
			}
			c.p.splitsExecuted.Add(1)
			e.next++
		case opStall:
			n, err := c.Conn.Write(b[:k])
			e.off += int64(n)
			written += n
			if err != nil {
				return written, err
			}
			b = b[k:]
			if owned {
				c.wbuf = c.wbuf[k:]
			}
			c.p.stallsExecuted.Add(1)
			e.next++
			time.Sleep(ev.stall)
		case opCut:
			n, _ := c.Conn.Write(b[:k])
			e.off += int64(n)
			written += n
			e.next++
			c.cutNow()
			return written, ErrCut
		}
	}
	return written, nil
}

// cutNow executes a cut exactly once per connection: stop accepting
// bytes in either direction, send FIN upstream so everything already
// written is delivered (an abrupt Close could RST and discard delivered
// bytes from the peer's buffer), and drain+close in the background.
func (c *chaosConn) cutNow() {
	// CAS, not sync.Once: the cut path is statically reachable from the
	// serving hot path (any net.Conn write), and an escaping closure
	// there would trip the wblint hotpath gate.
	if !c.cut.CompareAndSwap(false, true) {
		return
	}
	c.p.cutsExecuted.Add(1)
	c.closeWriteUpstream()
	go drainAndClose(c.Conn)
}

// drainAndClose consumes whatever the peer still sends after a cut and
// then closes the socket. The drained bytes deliberately bypass the
// fault engine: a lane's byte cursors must only ever count delivered
// traffic, and the engine belongs to the lane's next connection already.
func drainAndClose(conn net.Conn) {
	_, _ = io.Copy(io.Discard, conn)
	_ = conn.Close()
}

// closeWriteUpstream half-closes the upstream leg (FIN) when the
// transport supports it.
func (c *chaosConn) closeWriteUpstream() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
}

// Close shuts the connection down. After a cut the background drain
// owns the upstream socket; otherwise close it directly.
func (c *chaosConn) Close() error {
	if c.cut.Load() {
		return nil
	}
	return c.Conn.Close()
}
