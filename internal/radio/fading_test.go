package radio

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dsp"
	"repro/internal/rng"
	"repro/internal/units"
)

// atZero tabulates a channel at the carrier only, so Response(0) is H(0).
var atZero = []units.Hertz{0}

func TestMultipathUnitAveragePower(t *testing.T) {
	// Average |H(0)|² over many realizations should be ~1.
	cfg := DefaultMultipathConfig()
	stream := rng.New(1)
	const n = 5000
	var pow float64
	for i := 0; i < n; i++ {
		m := NewMultipath(cfg, atZero, stream.Split("x"))
		h := m.Response(0)
		pow += real(h)*real(h) + imag(h)*imag(h)
	}
	if got := pow / n; math.Abs(got-1) > 0.1 {
		t.Errorf("average channel power = %v, want ~1", got)
	}
}

func TestMultipathFrequencySelectivity(t *testing.T) {
	// With a 60 ns delay spread, responses 10 MHz apart should differ
	// noticeably for most realizations.
	cfg := DefaultMultipathConfig()
	cfg.RiceK = 0 // pure Rayleigh for maximum selectivity
	stream := rng.New(2)
	differ := 0
	const n = 200
	for i := 0; i < n; i++ {
		m := NewMultipath(cfg, []units.Hertz{-10 * units.MHz, +10 * units.MHz}, stream.Split("y"))
		a := cmplx.Abs(m.Response(0))
		b := cmplx.Abs(m.Response(1))
		if math.Abs(a-b) > 0.1*(a+b)/2 {
			differ++
		}
	}
	if differ < n/3 {
		t.Errorf("only %d/%d realizations showed frequency selectivity", differ, n)
	}
}

func TestMultipathAdjacentSubchannelsCorrelated(t *testing.T) {
	// Responses 625 kHz apart should be nearly identical (coherence
	// bandwidth >> subchannel spacing).
	cfg := DefaultMultipathConfig()
	stream := rng.New(3)
	var diff, mag float64
	const n = 500
	for i := 0; i < n; i++ {
		m := NewMultipath(cfg, []units.Hertz{0, 625 * units.KHz}, stream.Split("z"))
		a := m.Response(0)
		b := m.Response(1)
		diff += cmplx.Abs(a - b)
		mag += cmplx.Abs(a)
	}
	// Ensemble-average difference should be a small fraction of the
	// magnitude (coherence bandwidth >> 625 kHz).
	if diff/mag > 0.15 {
		t.Errorf("adjacent subchannels decorrelated: mean diff/mag = %v", diff/mag)
	}
}

func TestMultipathStaticWithoutCoherence(t *testing.T) {
	cfg := DefaultMultipathConfig()
	cfg.CoherenceTime = 0
	m := NewMultipath(cfg, []units.Hertz{1 * units.MHz}, rng.New(4))
	before := m.Response(0)
	m.EvolveTo(100)
	after := m.Response(0)
	if before != after {
		t.Errorf("static channel changed: %v -> %v", before, after)
	}
}

func TestMultipathEvolutionDecorrelates(t *testing.T) {
	cfg := DefaultMultipathConfig()
	cfg.RiceK = 0
	cfg.CoherenceTime = 1
	stream := rng.New(5)
	var shortDiff, longDiff float64
	const n = 300
	for i := 0; i < n; i++ {
		m := NewMultipath(cfg, atZero, stream.Split("e"))
		h0 := m.Response(0)
		m.EvolveTo(0.01) // 10 ms: nearly unchanged
		h1 := m.Response(0)
		shortDiff += cmplx.Abs(h1 - h0)
		m.EvolveTo(10) // 10 coherence times: fully decorrelated
		h2 := m.Response(0)
		longDiff += cmplx.Abs(h2 - h0)
	}
	if shortDiff/float64(n) > 0.2 {
		t.Errorf("channel moved too much in 10 ms: mean diff %v", shortDiff/float64(n))
	}
	if longDiff/float64(n) < 0.5 {
		t.Errorf("channel did not decorrelate after 10 s: mean diff %v", longDiff/float64(n))
	}
}

func TestMultipathEvolutionPreservesPower(t *testing.T) {
	cfg := DefaultMultipathConfig()
	cfg.RiceK = 0
	stream := rng.New(6)
	var pow float64
	const n = 2000
	for i := 0; i < n; i++ {
		m := NewMultipath(cfg, atZero, stream.Split("p"))
		m.EvolveTo(50) // many coherence times
		h := m.Response(0)
		pow += real(h)*real(h) + imag(h)*imag(h)
	}
	if got := pow / n; math.Abs(got-1) > 0.15 {
		t.Errorf("power after long evolution = %v, want ~1", got)
	}
}

func TestMultipathEvolveBackwardsIgnored(t *testing.T) {
	m := NewMultipath(DefaultMultipathConfig(), atZero, rng.New(7))
	m.EvolveTo(5)
	h := m.Response(0)
	m.EvolveTo(3) // earlier time: no-op
	if got := m.Response(0); got != h {
		t.Errorf("backwards evolution changed channel")
	}
}

func TestMultipathRicianLOSRaisesStability(t *testing.T) {
	// A strong LOS should reduce the spread of |H| across realizations.
	stream := rng.New(8)
	spread := func(k float64) float64 {
		cfg := DefaultMultipathConfig()
		cfg.RiceK = k
		var mags []float64
		for i := 0; i < 500; i++ {
			m := NewMultipath(cfg, atZero, stream.Split("k"))
			mags = append(mags, cmplx.Abs(m.Response(0)))
		}
		var mean, varsum float64
		for _, v := range mags {
			mean += v
		}
		mean /= float64(len(mags))
		for _, v := range mags {
			varsum += (v - mean) * (v - mean)
		}
		return varsum / float64(len(mags)) / (mean * mean)
	}
	if sLow, sHigh := spread(0), spread(20); sHigh >= sLow {
		t.Errorf("Rician K=20 spread %v should be below Rayleigh spread %v", sHigh, sLow)
	}
}

func TestMultipathSingleTap(t *testing.T) {
	cfg := MultipathConfig{Taps: 1, DelaySpread: 0, RiceK: 0, CoherenceTime: 0}
	m := NewMultipath(cfg, []units.Hertz{-10 * units.MHz, +10 * units.MHz}, rng.New(9))
	// A single tap at delay 0 is frequency flat.
	a := m.Response(0)
	b := m.Response(1)
	if cmplx.Abs(a-b) > 1e-12 {
		t.Errorf("single-tap channel not flat: %v vs %v", a, b)
	}
}

func TestMultipathZeroTapsClamped(t *testing.T) {
	cfg := MultipathConfig{Taps: 0, DelaySpread: 10e-9}
	m := NewMultipath(cfg, atZero, rng.New(10))
	if got := m.Response(0); got == 0 {
		t.Error("clamped channel should still have one tap")
	}
}

func TestMultipathCoherenceBandwidth(t *testing.T) {
	// With a 60 ns delay spread, the 50% coherence bandwidth is around
	// 1/(5·τ) ≈ 3 MHz — a handful of 625 kHz sub-channel bins. Validate
	// the model's frequency autocorrelation against that.
	cfg := DefaultMultipathConfig()
	cfg.RiceK = 0 // scatter only: the LOS floor masks decorrelation
	stream := rng.New(77)
	offsets := make([]units.Hertz, 30)
	for k := range offsets {
		offsets[k] = units.Hertz(float64(k)-14.5) * 625 * units.KHz
	}
	var bins []float64
	for trial := 0; trial < 60; trial++ {
		m := NewMultipath(cfg, offsets, stream.Split("cb"))
		h := make([]complex128, len(offsets))
		for k := range h {
			h[k] = m.Response(k)
		}
		bins = append(bins, float64(dsp.CoherenceBandwidthBins(h, 0.5)))
	}
	var mean float64
	for _, b := range bins {
		mean += b
	}
	mean /= float64(len(bins))
	// 3 MHz / 625 kHz ≈ 5 bins; accept a broad band around it.
	if mean < 2 || mean > 20 {
		t.Errorf("mean coherence bandwidth = %.1f bins, want ~5 (2-20)", mean)
	}
}
