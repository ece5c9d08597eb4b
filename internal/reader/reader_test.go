package reader

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wifi"
)

func TestAdviseMatchesPaperOperatingPoints(t *testing.T) {
	ra := NewRateAdvisor()
	// Fig. 12: ~100 bps at 500 pkt/s and ~1 kbps at ~3070 pkt/s.
	if got := ra.Advise(500); got != 100 {
		t.Errorf("Advise(500) = %v, want 100", got)
	}
	if got := ra.Advise(3070); got != 500 {
		t.Errorf("Advise(3070) = %v, want 500 (conservative default)", got)
	}
	aggressive := RateAdvisor{PacketsPerBit: 3, Safety: 1}
	if got := aggressive.Advise(3070); got != 1000 {
		t.Errorf("aggressive Advise(3070) = %v, want 1000", got)
	}
}

func TestAdviseZeroWhenStarved(t *testing.T) {
	ra := NewRateAdvisor()
	if got := ra.Advise(100); got != 0 {
		t.Errorf("Advise(100) = %v, want 0 (cannot sustain 100 bps)", got)
	}
}

// TestAdvisorValidateAndClamp pins both halves of the configuration
// contract: Validate rejects out-of-range parameters at construction,
// and Advise — which must keep a live control loop running — clamps the
// same parameters to the NewRateAdvisor defaults (M=4, Safety=0.8)
// rather than failing. The clamp is documented, not silent: every
// clamped case here advises exactly what the default advisor would.
func TestAdvisorValidateAndClamp(t *testing.T) {
	def := NewRateAdvisor()
	cases := []struct {
		name      string
		ra        RateAdvisor
		wantValid bool
		clamped   bool // Advise must match the default advisor
	}{
		{"defaults", NewRateAdvisor(), true, false},
		{"custom in-range", RateAdvisor{PacketsPerBit: 3, Safety: 1}, true, false},
		{"zero packets per bit", RateAdvisor{PacketsPerBit: 0, Safety: 0.8}, false, true},
		{"negative packets per bit", RateAdvisor{PacketsPerBit: -2, Safety: 0.8}, false, true},
		{"zero safety", RateAdvisor{PacketsPerBit: 4, Safety: 0}, false, true},
		{"negative safety", RateAdvisor{PacketsPerBit: 4, Safety: -0.5}, false, true},
		{"safety above one", RateAdvisor{PacketsPerBit: 4, Safety: 1.5}, false, true},
		{"both out of range", RateAdvisor{PacketsPerBit: 0, Safety: 2}, false, true},
		{"non-positive custom rate", RateAdvisor{PacketsPerBit: 4, Safety: 0.8,
			Rates: []float64{100, 0}}, false, false},
	}
	for _, tc := range cases {
		err := tc.ra.Validate()
		if (err == nil) != tc.wantValid {
			t.Errorf("%s: Validate() = %v, want valid: %v", tc.name, err, tc.wantValid)
		}
		if !tc.clamped {
			continue
		}
		for _, n := range []float64{0, 100, 500, 3070, 10000} {
			if got, want := tc.ra.Advise(n), def.Advise(n); got != want {
				t.Errorf("%s: Advise(%v) = %v, want the default advisor's %v", tc.name, n, got, want)
			}
		}
	}
}

func TestAdviseEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		ra   RateAdvisor
		n    float64
		want float64
	}{
		{"zero helper rate", NewRateAdvisor(), 0, 0},
		{"negative helper rate", NewRateAdvisor(), -500, 0},
		{"negative rate with permissive config", RateAdvisor{PacketsPerBit: 1, Safety: 1}, -1, 0},
		{"unsorted custom rates", RateAdvisor{PacketsPerBit: 4, Safety: 0.8,
			Rates: []float64{1000, 100, 500, 200}}, 3070, 500},
		{"descending custom rates pick max qualifying", RateAdvisor{PacketsPerBit: 1, Safety: 1,
			Rates: []float64{1000, 500, 200, 100}}, 700, 500},
		{"single unaffordable rate", RateAdvisor{PacketsPerBit: 4, Safety: 0.8,
			Rates: []float64{1000}}, 500, 0},
		{"empty rates fall back to standard", RateAdvisor{PacketsPerBit: 4, Safety: 0.8}, 500, 100},
	}
	for _, tc := range cases {
		if got := tc.ra.Advise(tc.n); got != tc.want {
			t.Errorf("%s: Advise(%v) = %v, want %v", tc.name, tc.n, got, tc.want)
		}
	}
}

// TestAdviseOrderInvariantProperty pins the no-sort rewrite: any
// permutation of Rates yields the same advice.
func TestAdviseOrderInvariantProperty(t *testing.T) {
	f := func(n uint16, seed int64) bool {
		base := RateAdvisor{PacketsPerBit: 4, Safety: 0.8,
			Rates: []float64{100, 200, 500, 1000}}
		shuffled := RateAdvisor{PacketsPerBit: 4, Safety: 0.8,
			Rates: append([]float64(nil), base.Rates...)}
		rng.New(seed).Shuffle(len(shuffled.Rates), func(i, j int) {
			shuffled.Rates[i], shuffled.Rates[j] = shuffled.Rates[j], shuffled.Rates[i]
		})
		return base.Advise(float64(n)) == shuffled.Advise(float64(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdviseMonotoneProperty(t *testing.T) {
	ra := NewRateAdvisor()
	f := func(a, b uint16) bool {
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return ra.Advise(lo) <= ra.Advise(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdviseDefaultsOnZeroConfig(t *testing.T) {
	ra := RateAdvisor{}
	if got := ra.Advise(5000); got == 0 {
		t.Error("zero-config advisor should fall back to defaults and advise a rate")
	}
}

func TestRateEstimator(t *testing.T) {
	e, err := NewRateEstimator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rate() != 0 {
		t.Error("fresh estimator should report 0")
	}
	// 500 packets over 1 second.
	for i := 0; i < 500; i++ {
		e.Observe(float64(i) * 0.002)
	}
	if got := e.Rate(); got < 450 || got > 550 {
		t.Errorf("rate = %v, want ~500", got)
	}
	// After a quiet gap, old packets age out.
	e.Observe(10)
	if got := e.Rate(); got > 2 {
		t.Errorf("rate after gap = %v, want ~1", got)
	}
}

// TestRateEstimatorSlidingWindow checks the estimate after every
// observation of a long, uneven arrival stream against a plain count of
// the arrivals inside the window, so that the in-place compaction of the
// window's slice is exercised many times.
func TestRateEstimatorSlidingWindow(t *testing.T) {
	const window = 0.5
	e, err := NewRateEstimator(window)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.New(9)
	var all []float64 // every arrival, never compacted
	lo := 0           // all[lo:] are inside the window
	at := 0.0
	for i := 0; i < 20000; i++ {
		// The rate swings between about 200 and 3000 packets/s.
		at += rnd.Exponential(1 / (1600 + 1400*math.Sin(at)))
		e.Observe(at)
		all = append(all, at)
		for all[lo] < at-window {
			lo++
		}
		if got, want := e.Rate(), float64(len(all)-lo)/window; got != want {
			t.Fatalf("observation %d at %.4f s: rate %v, want %v", i, at, got, want)
		}
	}
}

func TestRateEstimatorValidation(t *testing.T) {
	if _, err := NewRateEstimator(0); err == nil {
		t.Error("zero window should error")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := Query{Command: CmdRead, TagID: 0xBEEF, BitRate: 1000, Arg: 7}
	got := DecodeQuery(q.Encode())
	if got != q {
		t.Errorf("round trip: got %+v, want %+v", got, q)
	}
}

func TestQueryRoundTripProperty(t *testing.T) {
	f := func(cmd uint8, id uint16, rate uint16, arg uint8) bool {
		q := Query{Command: cmd, TagID: id, BitRate: rate, Arg: arg}
		return DecodeQuery(q.Encode()) == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransactionRetries(t *testing.T) {
	tr := NewTransaction(Query{Command: CmdRead})
	attempts := 0
	for tr.NextAttempt() {
		attempts++
	}
	if attempts != tr.MaxAttempts {
		t.Errorf("attempts = %d, want %d", attempts, tr.MaxAttempts)
	}
	if tr.Done {
		t.Error("exhausted transaction should not be done")
	}
}

func TestTransactionCompletes(t *testing.T) {
	tr := NewTransaction(Query{})
	if !tr.NextAttempt() {
		t.Fatal("first attempt should be allowed")
	}
	tr.Complete()
	if tr.NextAttempt() {
		t.Error("completed transaction should not retry")
	}
}

func TestMonitorHelper(t *testing.T) {
	eng := sim.NewEngine()
	m := wifi.NewMedium(eng, rng.New(1))
	helper := m.AddStation("helper", wifi.MAC{1}, wifi.Rate54)
	other := m.AddStation("other", wifi.MAC{2}, wifi.Rate54)
	est, _ := NewRateEstimator(1.0)
	MonitorHelper(m, helper, est)
	(&wifi.CBRSource{Station: helper, Dst: wifi.MAC{9}, Payload: 100, Interval: 0.002}).Start()
	(&wifi.CBRSource{Station: other, Dst: wifi.MAC{9}, Payload: 100, Interval: 0.002}).Start()
	eng.Run(3)
	// Only the helper's ~500 pkt/s should be counted.
	if got := est.Rate(); got < 400 || got > 600 {
		t.Errorf("estimated helper rate = %v, want ~500", got)
	}
}
