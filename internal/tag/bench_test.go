package tag

import (
	"testing"

	"repro/internal/rng"
)

var sinkOut bool

// BenchmarkCircuitStep times one envelope sample through the receiver
// circuit at the simulator's envelope sample rate, alternating 50 µs of
// carrier and 50 µs of silence as the §4.2 downlink does.
func BenchmarkCircuitStep(b *testing.B) {
	c := DefaultCircuit(rng.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		amp := 0.0
		if i/200%2 == 0 {
			amp = 0.03
		}
		sinkOut = c.Step(amp, dt)
	}
}
