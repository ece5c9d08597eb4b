package csi

import (
	"testing"

	"repro/internal/rng"
)

var sinkMeasurement Measurement

// BenchmarkMeasure times one packet's report on the paper's reader (3
// antennas × 30 sub-channels).
func BenchmarkMeasure(b *testing.B) {
	card := NewCard(DefaultModel(), rng.New(1))
	h := randomChannel(rng.New(2), []int{30, 30, 30})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMeasurement = card.Measure(float64(i)*1e-3, h)
	}
}
