package serve

import (
	"math/cmplx"
	"testing"

	"repro/internal/csi"
	"repro/internal/rng"
)

// captureLines formats n m lines as the card model reports them: 3
// antennas × subs sub-channels of quantised amplitudes and quantised
// RSSI, each over its own random channel, stamped 1 ms apart from a
// little over a second into a capture. It returns the lines and a
// measurement of their shape to parse into.
func captureLines(subs, n int) ([][]byte, *csi.Measurement) {
	rnd := rng.New(1)
	card := csi.NewCard(csi.DefaultModel(), rnd)
	h := make([][]complex128, 3)
	for a := range h {
		h[a] = make([]complex128, subs)
	}
	lines := make([][]byte, n)
	for i := range lines {
		for a := range h {
			for k := range h[a] {
				h[a][k] = cmplx.Rect(5+10*rnd.Float64(), 6.28*rnd.Float64())
			}
		}
		lines[i] = AppendMeasurement(nil, card.Measure(1.25+0.001*(float64(i)+1.0371), h))
	}
	dst := &csi.Measurement{RSSI: make([]float64, 3), CSI: make([][]float64, 3)}
	for a := range dst.CSI {
		dst.CSI[a] = make([]float64, subs)
	}
	return lines, dst
}

// captureLine is the first of captureLines.
func captureLine(subs int) ([]byte, *csi.Measurement) {
	lines, dst := captureLines(subs, 1)
	return lines[0], dst
}

// BenchmarkParseMeasurement times the wire parse of one m line into a
// reused measurement, as the TCP front end does per line: the CSI
// workload's 3×30 line and the RSSI workload's 3×1 line, each one line
// parsed over and over, and 1024 distinct 3×30 lines in turn
// (csi3x30-distinct), whose digits the branch predictor cannot learn.
func BenchmarkParseMeasurement(b *testing.B) {
	for _, c := range []struct {
		name     string
		subs, n int
	}{{"csi3x30", 30, 1}, {"rssi3x1", 1, 1}, {"csi3x30-distinct", 30, 1024}} {
		b.Run(c.name, func(b *testing.B) {
			lines, m := captureLines(c.subs, c.n)
			size := 0
			for _, line := range lines {
				size += len(line)
			}
			b.SetBytes(int64(size / len(lines)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ParseMeasurement(lines[i%len(lines)], m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
