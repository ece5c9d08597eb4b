package radio

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkObserve times one packet's channel evaluation on the paper's
// reader (3 antennas × 30 sub-channels) with one tag reflecting, reusing
// the output buffer as core.System does.
func BenchmarkObserve(b *testing.B) {
	c, err := NewMultiChannel(DefaultChannelConfig(), Geometry{HelperToTag: 3}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.AddTag(0.05); err != nil {
		b.Fatal(err)
	}
	reflecting := []bool{true}
	var dst [][]complex128
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Packets arrive about every millisecond (§3.2).
		dst, err = c.Observe(float64(i)*1e-3, reflecting, dst)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvance times the same channel moved on for one packet without
// being evaluated, as core.System does for a capture outside the frame.
func BenchmarkAdvance(b *testing.B) {
	c, err := NewMultiChannel(DefaultChannelConfig(), Geometry{HelperToTag: 3}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.AddTag(0.05); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Advance(float64(i) * 1e-3)
	}
}
