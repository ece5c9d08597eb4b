package serve

import (
	"math/cmplx"
	"testing"

	"repro/internal/csi"
	"repro/internal/rng"
)

// captureLine formats one m line as the card model reports it: 3 antennas
// × subs sub-channels of quantised amplitudes and quantised RSSI, stamped
// like a packet a little over a second into a capture. It returns the
// line and a measurement of its shape to parse into.
func captureLine(subs int) ([]byte, *csi.Measurement) {
	rnd := rng.New(1)
	h := make([][]complex128, 3)
	for a := range h {
		h[a] = make([]complex128, subs)
		for k := range h[a] {
			h[a][k] = cmplx.Rect(5+10*rnd.Float64(), 6.28*rnd.Float64())
		}
	}
	m := csi.NewCard(csi.DefaultModel(), rnd).Measure(1.25+0.001*1.0371, h)
	dst := &csi.Measurement{RSSI: make([]float64, 3), CSI: make([][]float64, 3)}
	for a := range dst.CSI {
		dst.CSI[a] = make([]float64, subs)
	}
	return AppendMeasurement(nil, m), dst
}

// BenchmarkParseMeasurement times the wire parse of one m line into a
// reused measurement, as the TCP front end does per line: the CSI
// workload's 3×30 line and the RSSI workload's 3×1 line.
func BenchmarkParseMeasurement(b *testing.B) {
	for _, c := range []struct {
		name string
		subs int
	}{{"csi3x30", 30}, {"rssi3x1", 1}} {
		b.Run(c.name, func(b *testing.B) {
			line, m := captureLine(c.subs)
			b.SetBytes(int64(len(line)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ParseMeasurement(line, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
