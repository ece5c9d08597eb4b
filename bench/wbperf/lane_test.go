package main

import (
	"bytes"
	"testing"
	"time"
)

// fakeClock is a manual clock: sleeping advances it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// stalledWriter takes stall of clock time for every write, as a server
// applying backpressure would.
type stalledWriter struct {
	clock  *fakeClock
	stall  time.Duration
	writes [][]byte
}

func (w *stalledWriter) Write(b []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), b...))
	w.clock.advance(w.stall)
	return len(b), nil
}

// TestPacerMeasuresLatenessFromDueTime drives the open-loop pacer with an
// injected clock and a writer that stalls 5 ms per write at 1000 lines/s:
// the lines that fall due during a stall go out together in the next
// write, and each is charged the time since it was due.
func TestPacerMeasuresLatenessFromDueTime(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	w := &stalledWriter{clock: clock, stall: 5 * time.Millisecond}
	p := &pacer{now: clock.now, sleep: clock.sleep, t0: clock.t, per: 1e6}
	var buf []byte
	var ends []int
	for i := 0; i < 12; i++ {
		buf = append(buf, byte('a'+i), '\n')
		ends = append(ends, len(buf))
	}
	markLag, err := p.send(w, buf, ends, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Line 0 goes out on time; lines 1-5 were due at 1..5 ms and go out
	// at 5 ms; lines 6-10 at 10 ms; line 11 at 15 ms.
	wantWrites := []string{"a\n", "b\nc\nd\ne\nf\n", "g\nh\ni\nj\nk\n", "l\n"}
	if len(w.writes) != len(wantWrites) {
		t.Fatalf("%d writes, want %d: %q", len(w.writes), len(wantWrites), w.writes)
	}
	for i, want := range wantWrites {
		if !bytes.Equal(w.writes[i], []byte(want)) {
			t.Errorf("write %d = %q, want %q", i, w.writes[i], want)
		}
	}
	if markLag != 2*time.Millisecond {
		t.Errorf("line 3 lateness %v, want 2ms (due at 3 ms, sent at 5 ms)", markLag)
	}
	// Lateness per line in ms: 0, 4,3,2,1,0, 4,3,2,1,0, 4.
	if p.lag.n != 12 || p.lag.max != int64(4*time.Millisecond) || p.lag.min != 0 {
		t.Errorf("lag histogram n=%d min=%d max=%d, want 12 lines from 0 to 4ms", p.lag.n, p.lag.min, p.lag.max)
	}
	if got, want := p.lag.sum, float64(24*time.Millisecond); got != want {
		t.Errorf("total lateness %v ns, want %v ns", got, want)
	}
	// The schedule does not slip: the next line is due at 12 ms whatever
	// the stalls did.
	if got := p.due(p.sent).Sub(time.Unix(1000, 0)); got != 12*time.Millisecond {
		t.Errorf("next line due at %v, want 12ms", got)
	}
}

func TestClosedLoopPacerSendsAtOnce(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	w := &stalledWriter{clock: clock, stall: time.Second}
	p := &pacer{now: clock.now, sleep: clock.sleep}
	if _, err := p.send(w, []byte("a\nb\n"), []int{2, 4}, 0); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 1 || p.sent != 2 || p.lag.n != 0 {
		t.Errorf("closed loop: %d writes, %d sent, %d lag samples; want 1, 2, 0", len(w.writes), p.sent, p.lag.n)
	}
}
