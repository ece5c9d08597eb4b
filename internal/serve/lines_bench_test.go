package serve_test

import (
	"bufio"
	"bytes"
	"net"
	"testing"

	"repro/internal/serve"
	"repro/internal/uplink"
)

// BenchmarkServeLines times the serving hand-off end to end. Each
// iteration is one session through Server.ServeTCP over loopback: its
// hello, every m line and a flush in one write, then the responses read
// until the done line. It reports ns/line for the RSSI workload's 3×1
// shape and the CSI workload's 3×30 shape (tcp), beside a plain
// StreamDecoder.Push of the same series (decode). BenchmarkParseMeasurement
// gives the parse's share; what remains is connection setup and the
// hand-off from the reader to the session's worker.
func BenchmarkServeLines(b *testing.B) {
	const payloadLen = 16
	for _, c := range []struct {
		name string
		mode uplink.StreamMode
		subs int
	}{{"rssi3x1", uplink.StreamRSSI, 1}, {"csi3x30", uplink.StreamCSI, 30}} {
		series := synthShaped(b, randomPayload(payloadLen, 330), 330, 3, c.subs)
		p := shapedParams(payloadLen, c.mode, 3, c.subs)
		session := append(serve.AppendHello(nil, p), '\n')
		session = append(append(session, wireLines(series.Measurements)...), "flush\n"...)
		perLine := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*series.Len()), "ns/line")
		}

		b.Run(c.name+"/tcp", func(b *testing.B) {
			_, addr := startTCP(b, serve.Config{})
			b.SetBytes(int64(len(session)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := conn.Write(session); err != nil {
					b.Fatal(err)
				}
				br := bufio.NewReader(conn)
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						b.Fatalf("no done line: %v", err)
					}
					if bytes.HasPrefix(line, []byte("done ")) {
						break
					}
					if bytes.HasPrefix(line, []byte("error ")) || bytes.HasPrefix(line, []byte("reject ")) {
						b.Fatalf("session failed: %s", line)
					}
				}
				_ = conn.Close()
			}
			perLine(b)
		})

		b.Run(c.name+"/decode", func(b *testing.B) {
			dec, err := uplink.NewDecoder(uplink.DefaultConfig(testBitDur))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sd, err := dec.NewStream(testStart, payloadLen, c.mode)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range series.Measurements {
					if _, err := sd.Push(m); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sd.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			perLine(b)
		})
	}
}
