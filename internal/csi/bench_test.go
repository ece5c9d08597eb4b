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

// BenchmarkMeasureInto times the same report written into one reused
// 3×30 report, as a system that retains no series measures.
func BenchmarkMeasureInto(b *testing.B) {
	card := NewCard(DefaultModel(), rng.New(1))
	h := randomChannel(rng.New(2), []int{30, 30, 30})
	var m Measurement
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		card.MeasureInto(&m, float64(i)*1e-3, h)
	}
	sinkMeasurement = m
}

// BenchmarkSkipInto times the same packet's draws made into a reused
// report without computing it, as a system streaming to a decoder does
// for a capture outside the frame.
func BenchmarkSkipInto(b *testing.B) {
	card := NewCard(DefaultModel(), rng.New(1))
	h := randomChannel(rng.New(2), []int{30, 30, 30})
	var m Measurement
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		card.SkipInto(&m, float64(i)*1e-3, h)
	}
	sinkMeasurement = m
}
