package sim

import "testing"

// BenchmarkEngineSchedule times one event's schedule and dispatch with 64
// events pending, the depth of a busy medium. Times are whole seconds, so
// each Run dispatches exactly the earliest event and the depth holds.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i), fn)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(64, fn)
		e.Run(e.q[0].at)
	}
}
