package serve_test

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/csi"
	"repro/internal/serve"
	"repro/internal/uplink"
)

// wireSession is one raw protocol exchange: the connection and a scanner
// over its responses, under a deadline so a reader that never publishes
// fails the test instead of hanging it.
type wireSession struct {
	t    *testing.T
	conn net.Conn
	sc   *bufio.Scanner
}

func dialWire(t *testing.T, addr string) *wireSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &wireSession{t: t, conn: conn, sc: sc}
}

func (w *wireSession) write(b []byte) {
	w.t.Helper()
	if _, err := w.conn.Write(b); err != nil {
		w.t.Fatalf("write: %v", err)
	}
}

// next reads one response line.
func (w *wireSession) next() serve.Response {
	w.t.Helper()
	if !w.sc.Scan() {
		w.t.Fatalf("connection ended early: %v", w.sc.Err())
	}
	r, err := serve.ParseResponse(w.sc.Bytes())
	if err != nil {
		w.t.Fatal(err)
	}
	return r
}

// rest reads responses until the done or error line that ends the
// session, returning the bit lines before it and every error line's text
// on the way.
func (w *wireSession) rest() (bits []uplink.BitDecision, errs []string, done serve.Response) {
	w.t.Helper()
	for {
		r := w.next()
		switch r.Kind {
		case serve.RespBit:
			bits = append(bits, r.Bit)
		case serve.RespError:
			errs = append(errs, r.Reason)
			if len(errs) > 1 {
				return bits, errs, r
			}
		case serve.RespDone:
			return bits, errs, r
		default:
			w.t.Fatalf("unexpected response kind %d mid-session", r.Kind)
		}
	}
}

// wireLines formats measurements as newline-terminated m lines.
func wireLines(ms []csi.Measurement) []byte {
	var b []byte
	for _, m := range ms {
		b = append(serve.AppendMeasurement(b, m), '\n')
	}
	return b
}

// TestWireBatchesMatchBatch feeds the TCP reader inputs whose lines cross
// the points where it publishes a batch to the worker, at ring sizes
// whose batch is one slot (1, 3) and 64 slots (256): the whole session in
// one write many times the ring, one byte per write, a flush and a
// malformed line in the middle of a batch, a client that waits for the
// frame's bits before it sends anything more, and a resume that steals
// the session while the old connection's reader holds lines it has not
// yet handed over. Bits and the done line must be the batch decoder's,
// the error line ParseMeasurement's, and the resume cursor every
// complete line the cut connection delivered.
func TestWireBatchesMatchBatch(t *testing.T) {
	const payloadLen = 12
	series := synthSeries(t, randomPayload(payloadLen, 320), 320)
	p := testParams(payloadLen)
	want := batchDecode(t, series, payloadLen)

	dec, err := uplink.NewDecoder(uplink.DefaultConfig(testBitDur))
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream(testStart, payloadLen, uplink.StreamCSI)
	if err != nil {
		t.Fatal(err)
	}
	closeAt, cutAt := -1, 0
	for i, m := range series.Measurements {
		if m.Timestamp < sd.End()-3*testBitDur {
			cutAt = i + 1
		}
		if m.Timestamp >= sd.End() {
			closeAt = i
			break
		}
	}
	if closeAt < 0 {
		t.Fatal("no measurement closes the frame")
	}
	// A session cut inside the frame decodes at flush: the reference for
	// the mid-batch flush and the malformed line.
	wantCut := batchDecode(t, &csi.Series{Measurements: series.Measurements[:cutAt]}, payloadLen)
	wantClose := batchDecode(t, &csi.Series{Measurements: series.Measurements[:closeAt+1]}, payloadLen)

	hello := append(serve.AppendHello(nil, p), '\n')
	lines := wireLines(series.Measurements)
	cutLines := wireLines(series.Measurements[:cutAt])
	rest := lines[len(cutLines):]
	bad := []byte("m 1 not-a-number")
	shaped := csi.Measurement{RSSI: make([]float64, testAntennas), CSI: make([][]float64, testAntennas)}
	for a := range shaped.CSI {
		shaped.CSI[a] = make([]float64, testSubs)
	}
	wantErr := serve.ParseMeasurement(bad, &shaped)
	if wantErr == nil {
		t.Fatal("malformed line parses")
	}

	for _, buffer := range []int{1, 3, 256} {
		t.Run(fmt.Sprintf("buffer%d", buffer), func(t *testing.T) {
			_, addr := startTCP(t, serve.Config{SessionBuffer: buffer})
			run := func(name string, writes [][]byte, want *uplink.Result, wantErrs int) {
				t.Helper()
				w := dialWire(t, addr)
				for _, b := range writes {
					w.write(b)
				}
				if r := w.next(); r.Kind != serve.RespOK {
					t.Fatalf("%s: hello answered %+v", name, r)
				}
				bits, errs, done := w.rest()
				checkMatchesBatch(t, name, bits, done, want)
				if len(errs) != wantErrs {
					t.Errorf("%s: error lines %q, want %d", name, errs, wantErrs)
				}
				for _, e := range errs {
					if e != wantErr.Error() {
						t.Errorf("%s: error line %q, want %q", name, e, wantErr)
					}
				}
			}

			whole := append(append(append([]byte{}, hello...), lines...), "flush\n"...)
			run("one write", [][]byte{whole}, want, 0)

			bytewise := make([][]byte, len(whole))
			for i := range whole {
				bytewise[i] = whole[i : i+1]
			}
			run("one byte per write", bytewise, want, 0)

			flushed := append(append(append([]byte{}, hello...), cutLines...), "flush\n"...)
			run("flush mid-batch", [][]byte{append(flushed, rest...)}, wantCut, 0)

			malformed := append(append(append([]byte{}, hello...), cutLines...), bad...)
			malformed = append(append(append(malformed, '\n'), rest...), "flush\n"...)
			run("malformed line mid-batch", [][]byte{malformed}, wantCut, 1)

			// Nothing follows the frame-closing line until its bits are
			// back: the reader must hand it over before it waits for more.
			w := dialWire(t, addr)
			w.write(hello)
			if r := w.next(); r.Kind != serve.RespOK {
				t.Fatalf("bits before flush: hello answered %+v", r)
			}
			w.write(wireLines(series.Measurements[:closeAt+1]))
			var bits []uplink.BitDecision
			for len(bits) < payloadLen {
				r := w.next()
				if r.Kind != serve.RespBit {
					t.Fatalf("bits before flush: %+v before the frame's bits", r)
				}
				bits = append(bits, r.Bit)
			}
			w.write([]byte("flush\n"))
			more, _, done := w.rest()
			checkMatchesBatch(t, "bits before flush", append(bits, more...), done, wantClose)

			// The cut connection delivers held complete lines and half a
			// line in one write, then closes; the resume arrives while its
			// reader may still hold parsed lines it has not published.
			rp := resumableParams(payloadLen)
			held := series.Len() / 2
			if held%64 == 0 {
				held++
			}
			first := dialWire(t, addr)
			first.write(append(serve.AppendHello(nil, rp), '\n'))
			ok := first.next()
			if ok.Kind != serve.RespOK || ok.Token == "" {
				t.Fatalf("resumable hello answered %+v", ok)
			}
			heldLines := wireLines(series.Measurements[:held])
			first.write(append(heldLines, lines[len(heldLines):len(heldLines)+10]...))
			_ = first.conn.Close()

			second := dialWire(t, addr)
			second.write(append(serve.AppendResume(nil, ok.Token, 0), '\n'))
			ok = second.next()
			if ok.Kind != serve.RespOK || ok.Seq != int64(held) {
				t.Fatalf("resume answered %+v, want seq=%d", ok, held)
			}
			second.write(lines[len(heldLines):])
			second.write([]byte("flush\n"))
			bits, errs, done := second.rest()
			if len(errs) != 0 {
				t.Errorf("resumed session: error lines %q", errs)
			}
			checkMatchesBatch(t, "resumed", bits, done, want)
		})
	}
}
