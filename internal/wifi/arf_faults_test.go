package wifi_test

// ARF under injected loss: the paper leans on the helper's stock rate
// adaptation (§9) to coexist with channel perturbations, so the rate
// control must actually fall back when a burst interferer destroys frames
// — and climb back once the burst passes. These tests drive a station
// with the real fault injector plugged into the medium, not a mocked loss
// sequence. They live in an external test package because internal/faults
// imports internal/wifi.

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wifi"
)

// burstWindow is the interval the interferer is on in these tests.
const (
	burstStart = 0.2
	burstEnd   = 0.6
)

// newBurstyMedium builds a medium whose injector destroys ~90% of frames
// inside [burstStart, burstEnd) and nothing outside it.
func newBurstyMedium(t *testing.T, seed int64) (*sim.Engine, *wifi.Medium) {
	t.Helper()
	inj, err := faults.NewInjector(&faults.Schedule{Windows: []faults.Window{
		{Kind: faults.Burst, Start: burstStart, End: burstEnd, Intensity: 1},
	}}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	m := wifi.NewMedium(eng, rng.New(seed+1))
	m.Impair = inj
	return eng, m
}

func TestARFFallsBackUnderInjectedLossBurst(t *testing.T) {
	eng, m := newBurstyMedium(t, 51)
	st := m.AddStation("helper", wifi.MAC{1}, wifi.Rate54)
	st.Adapter = wifi.NewARF()
	if err := (&wifi.CBRSource{
		Station: st, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.0005,
	}).Start(); err != nil {
		t.Fatal(err)
	}

	var duringBurst, afterRecovery wifi.Rate
	eng.ScheduleAt(burstEnd-0.01, func() { duringBurst = st.Rate })
	eng.ScheduleAt(burstEnd+1.0, func() { afterRecovery = st.Rate })
	eng.Run(burstEnd + 1.1)

	if st.LostFrames == 0 {
		t.Fatal("the burst destroyed no frames; the injector is not wired to the medium")
	}
	// ~90% loss with 2-down fallback drives the rate to the table floor
	// well before the burst ends.
	if duringBurst != wifi.Rate6 {
		t.Errorf("rate during burst = %v Mbps, want fallback to the floor (6)", duringBurst)
	}
	// Post-burst the channel is clean again: 10-up adaptation must walk
	// the whole table back within a second of 2000 pkt/s traffic.
	if afterRecovery != wifi.Rate54 {
		t.Errorf("rate after recovery = %v Mbps, want 54", afterRecovery)
	}
}

// TestInjectedLossConfinedToBurstWindow pins the injector's windowing at
// the medium layer: with no SNR model on the station, the only loss
// source is the injector, so every lost frame must start inside the
// window.
func TestInjectedLossConfinedToBurstWindow(t *testing.T) {
	eng, m := newBurstyMedium(t, 52)
	st := m.AddStation("helper", wifi.MAC{1}, wifi.Rate24)
	if err := (&wifi.CBRSource{
		Station: st, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001,
	}).Start(); err != nil {
		t.Fatal(err)
	}
	var inWindow, outside int
	m.AddListener(func(tx wifi.Transmission) {
		if !tx.Lost {
			return
		}
		if tx.Start >= burstStart && tx.Start < burstEnd {
			inWindow++
		} else {
			outside++
		}
	})
	eng.Run(1.0)
	if outside != 0 {
		t.Errorf("%d frames lost outside the burst window", outside)
	}
	if inWindow == 0 {
		t.Error("no frames lost inside the burst window")
	}
}
