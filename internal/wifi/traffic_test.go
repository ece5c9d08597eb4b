package wifi

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestCBRSourceRate(t *testing.T) {
	eng, m := newTestMedium(1)
	st := m.AddStation("helper", MAC{1}, Rate54)
	count := 0
	m.AddListener(func(tx Transmission) { count++ })
	(&CBRSource{Station: st, Dst: MAC{2}, Payload: 100, Interval: 0.001}).Start()
	eng.Run(2)
	// 1000 pkt/s for 2 s: ~2000 transmissions.
	if count < 1900 || count > 2100 {
		t.Errorf("CBR delivered %d frames in 2 s, want ~2000", count)
	}
}

func TestCBRSourceUntil(t *testing.T) {
	eng, m := newTestMedium(2)
	st := m.AddStation("helper", MAC{1}, Rate54)
	count := 0
	m.AddListener(func(tx Transmission) { count++ })
	(&CBRSource{Station: st, Dst: MAC{2}, Payload: 100, Interval: 0.001, Until: 0.5}).Start()
	eng.Run(2)
	if count < 450 || count > 550 {
		t.Errorf("bounded CBR delivered %d frames, want ~500", count)
	}
}

func TestCBRSourceValidation(t *testing.T) {
	_, m := newTestMedium(3)
	st := m.AddStation("s", MAC{1}, Rate54)
	if err := (&CBRSource{Station: st, Interval: 0}).Start(); err == nil {
		t.Error("zero interval should error")
	}
	if err := (&CBRSource{Interval: 0.001}).Start(); err == nil {
		t.Error("nil station should error")
	}
	if _, err := NewCBRSource(st, MAC{2}, 100, 0); err == nil {
		t.Error("NewCBRSource with zero interval should error")
	}
	if src, err := NewCBRSource(st, MAC{2}, 100, 0.001); err != nil || src == nil {
		t.Errorf("NewCBRSource with valid params: %v", err)
	}
}

func TestSourceConstructorValidation(t *testing.T) {
	_, m := newTestMedium(31)
	st := m.AddStation("s", MAC{1}, Rate54)
	if _, err := NewPoissonSource(st, MAC{2}, 100, 0, rng.New(1)); err == nil {
		t.Error("Poisson zero rate should error")
	}
	if _, err := NewPoissonSource(st, MAC{2}, 100, 50, nil); err == nil {
		t.Error("Poisson nil rng should error")
	}
	if _, err := NewBurstySource(st, MAC{2}, 100, 0, 0.05, 0.0005, rng.New(1)); err == nil {
		t.Error("Bursty zero burst should error")
	}
	if _, err := NewBeaconSource(st, 0); err == nil {
		t.Error("Beacon zero interval should error")
	}
	if _, err := NewBeaconSource(nil, 0.1); err == nil {
		t.Error("Beacon nil station should error")
	}
	if _, err := NewSaturatedSource(nil, MAC{2}, 100); err == nil {
		t.Error("Saturated nil station should error")
	}
	if src, err := NewPoissonSource(st, MAC{2}, 100, 50, rng.New(1)); err != nil {
		t.Errorf("valid Poisson: %v", err)
	} else if err := src.Start(); err != nil {
		t.Errorf("valid Poisson Start: %v", err)
	}
}

func TestSaturatedSourceKeepsBacklog(t *testing.T) {
	eng, m := newTestMedium(4)
	st := m.AddStation("ap", MAC{1}, Rate54)
	count := 0
	m.AddListener(func(tx Transmission) { count++ })
	(&SaturatedSource{Station: st, Dst: MAC{2}, Payload: 1500}).Start()
	eng.Run(1)
	// 1500B at 54 Mbps is ~244 µs + overheads: expect thousands of
	// frames per second.
	if count < 2000 {
		t.Errorf("saturated source delivered only %d frames in 1 s", count)
	}
}

func TestPoissonSourceRate(t *testing.T) {
	eng, m := newTestMedium(5)
	st := m.AddStation("ap", MAC{1}, Rate54)
	count := 0
	m.AddListener(func(tx Transmission) { count++ })
	(&PoissonSource{Station: st, Dst: MAC{2}, Payload: 200, Rate: 500,
		Rnd: rng.New(99)}).Start()
	eng.Run(4)
	got := float64(count) / 4
	if math.Abs(got-500) > 50 {
		t.Errorf("Poisson source rate = %v pkt/s, want ~500", got)
	}
}

func TestBurstySourceIsBursty(t *testing.T) {
	eng, m := newTestMedium(6)
	st := m.AddStation("client", MAC{1}, Rate54)
	var times []float64
	m.AddListener(func(tx Transmission) { times = append(times, tx.Start) })
	(&BurstySource{Station: st, Dst: MAC{2}, Payload: 600, MeanBurst: 20,
		MeanGap: 0.05, InBurstInterval: 0.0005, Rnd: rng.New(7)}).Start()
	eng.Run(5)
	if len(times) < 100 {
		t.Fatalf("bursty source too quiet: %d frames", len(times))
	}
	// The coefficient of variation of inter-arrival times should exceed
	// 1 (heavier than Poisson).
	var gaps []float64
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i]-times[i-1])
	}
	var mean, varsum float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(varsum/float64(len(gaps))) / mean
	if cv < 1 {
		t.Errorf("inter-arrival CV = %v, want > 1 for bursty traffic", cv)
	}
}

func TestBeaconSourceCadence(t *testing.T) {
	eng, m := newTestMedium(8)
	ap := m.AddStation("ap", MAC{1}, Rate54)
	var beacons []float64
	m.AddListener(func(tx Transmission) {
		if tx.Frame.Header.Type == TypeBeacon {
			beacons = append(beacons, tx.Start)
		}
	})
	(&BeaconSource{Station: ap, Interval: BeaconInterval}).Start()
	eng.Run(5)
	want := 5 / BeaconInterval
	if math.Abs(float64(len(beacons))-want) > 3 {
		t.Errorf("saw %d beacons in 5 s, want ~%.0f", len(beacons), want)
	}
	// Beacons go out at the base rate addressed to broadcast.
	if len(beacons) == 0 {
		t.Fatal("no beacons")
	}
}

func TestOfficeLoadShape(t *testing.T) {
	peak := OfficeLoad(14)
	night := OfficeLoad(3)
	if peak < 900 || peak > 1100 {
		t.Errorf("peak load = %v, want ~1000", peak)
	}
	if night > 200 {
		t.Errorf("night load = %v, want low", night)
	}
	if OfficeLoad(14) != OfficeLoad(14+24) {
		t.Error("OfficeLoad should be 24 h periodic")
	}
	// Monotone ramp from 8 AM to 1 PM.
	prev := OfficeLoad(8)
	for h := 9.0; h <= 13; h++ {
		cur := OfficeLoad(h)
		if cur <= prev {
			t.Errorf("load should ramp up through the morning: %v at %v", cur, h)
		}
		prev = cur
	}
}

func TestOFDMEnvelopeStats(t *testing.T) {
	rnd := rng.New(9)
	env := make([]float64, 100_000)
	OFDMEnvelope(env, rnd)
	var sum2 float64
	for _, v := range env {
		if v < 0 {
			t.Fatal("envelope must be non-negative")
		}
		sum2 += v * v
	}
	if ms := sum2 / float64(len(env)); math.Abs(ms-1) > 0.02 {
		t.Errorf("envelope mean square = %v, want ~1", ms)
	}
	// OFDM-like PAPR: a large block should show > 6 dB peak-to-average.
	if papr := PAPR(env); papr < 6 {
		t.Errorf("PAPR = %v dB, want > 6", papr)
	}
}

func TestPAPREdgeCases(t *testing.T) {
	if PAPR(nil) != 0 {
		t.Error("PAPR of empty block should be 0")
	}
	if PAPR([]float64{0, 0}) != 0 {
		t.Error("PAPR of silence should be 0")
	}
	if got := PAPR([]float64{1, 1, 1}); got != 0 {
		t.Errorf("constant envelope PAPR = %v, want 0", got)
	}
}
