package tag

import (
	"math"

	"repro/internal/rng"
	"repro/internal/units"
)

// Circuit simulates the tag's analog downlink receiver (§4.2, Fig. 8):
//
//	antenna → envelope detector → peak finder → set-threshold → comparator
//
// The envelope detector strips the 2.4 GHz carrier and, being a diode-RC
// stage, tracks rises with a charge time constant and falls with a
// discharge time constant. The peak finder holds the largest recent
// envelope on a capacitor that bleeds off slowly through the set-threshold
// resistor network, which also halves the held peak to produce the
// comparator threshold. The comparator outputs one whenever the (noisy)
// detected envelope exceeds the threshold.
//
// All voltages are normalized so that an incident power of P mW produces an
// RMS envelope of sqrt(P): callers scale by the link budget.
type Circuit struct {
	// ChargeTime is the envelope detector's rise time constant. It sets
	// the shortest detectable packet (§4.2: 50 µs).
	ChargeTime float64
	// DischargeTime is the envelope detector's fall time constant.
	DischargeTime float64
	// PeakDecay is the set-threshold network's bleed time constant,
	// which "resets" the peak detector over a relatively long interval.
	PeakDecay float64
	// ThresholdRatio divides the held peak to form the threshold (the
	// paper's capacitor divider halves it).
	ThresholdRatio float64
	// NoiseRMS is the comparator's input-referred noise in normalized
	// volts; it sets the detection sensitivity and hence range.
	NoiseRMS float64
	// MinThreshold keeps the comparator from triggering on pure noise
	// when no signal has charged the peak detector.
	MinThreshold float64
	// FixedThreshold, when positive, replaces the adaptive peak/2
	// threshold with a constant — the ablation of the set-threshold
	// circuit. A fixed threshold only suits one signal level, which is
	// why the paper's design adapts.
	FixedThreshold float64

	env  float64 // envelope detector output
	peak float64 // peak finder capacitor voltage
	rnd  *rng.Stream
	f    stepFactors
}

// stepFactors caches Step's three per-sample factors for the dt and time
// constants they were computed from. A run samples at a fixed period, so
// Step calls math.Exp only when dt or a time constant changes.
type stepFactors struct {
	dt, chargeTime, dischargeTime, peakDecay float64 // the key
	charge, discharge, bleed                 float64
	set                                      bool
}

// factors returns the step factors for dt and the circuit's current time
// constants, recomputing them only when one of those differs from the
// cached key.
func (c *Circuit) factors(dt float64) *stepFactors {
	f := &c.f
	//wblint:ignore FS001 a cache key: the factors apply only to the exact inputs they were computed from
	if f.set && dt == f.dt && c.ChargeTime == f.chargeTime && c.DischargeTime == f.dischargeTime && c.PeakDecay == f.peakDecay {
		return f
	}
	*f = stepFactors{
		dt: dt, chargeTime: c.ChargeTime, dischargeTime: c.DischargeTime, peakDecay: c.PeakDecay,
		charge:    rcStep(dt, c.ChargeTime),
		discharge: rcStep(dt, c.DischargeTime),
		set:       true,
	}
	// A non-positive bleed time constant empties the peak capacitor at
	// once, as rcStep treats the RC stages; exp(-dt/PeakDecay) would
	// exceed 1 for a negative one and grow the held peak without bound.
	if c.PeakDecay > 0 {
		f.bleed = math.Exp(-dt / c.PeakDecay)
	}
	return f
}

// ReceivePowerMicrowatt is the measured downlink circuit power (§6).
const ReceivePowerMicrowatt = 9.0

// DefaultCircuit returns the calibrated receiver circuit. The noise floor
// is set so 50 µs packets decode to ~2.1 m and 200 µs packets to ~3 m from
// a +16 dBm reader, matching Fig. 17.
func DefaultCircuit(rnd *rng.Stream) *Circuit {
	return &Circuit{
		ChargeTime:     20e-6,
		DischargeTime:  12e-6,
		PeakDecay:      20e-3,
		ThresholdRatio: 0.45,
		NoiseRMS:       0.0033,
		MinThreshold:   0.006,
		rnd:            rnd,
	}
}

// Reset clears the analog state.
func (c *Circuit) Reset() { c.env, c.peak = 0, 0 }

// Step advances the circuit by dt seconds with the given instantaneous
// received envelope amplitude (normalized volts) and returns the
// comparator output. The RC stages integrate the (clean) detected
// envelope; the comparator's input-referred noise enters at the decision,
// which is what limits sensitivity.
func (c *Circuit) Step(input float64, dt float64) bool {
	if input < 0 {
		input = 0
	}
	f := c.factors(dt)
	// Diode-RC envelope detector: charge toward rises, discharge
	// through the bleed resistor otherwise.
	if input > c.env {
		c.env += (input - c.env) * f.charge
	} else {
		c.env += (input - c.env) * f.discharge
	}
	// Peak finder with slow bleed.
	if c.env > c.peak {
		c.peak = c.env
	} else {
		c.peak *= f.bleed
	}
	thresh := c.peak * c.ThresholdRatio
	if thresh < c.MinThreshold {
		thresh = c.MinThreshold
	}
	if c.FixedThreshold > 0 {
		thresh = c.FixedThreshold
	}
	return c.env+c.rnd.Gaussian(0, c.NoiseRMS) > thresh
}

// rcStep returns the first-order step fraction 1-exp(-dt/tau), guarding a
// non-positive time constant as an instantaneous response.
func rcStep(dt, tau float64) float64 {
	if tau <= 0 {
		return 1
	}
	return 1 - math.Exp(-dt/tau)
}

// ReceivedEnvelopeScale returns the normalized RMS envelope voltage at the
// tag for a transmitter with power p at distance d and carrier frequency f:
// sqrt of the received power in mW under free-space loss.
func ReceivedEnvelopeScale(p units.DBm, d units.Meters, f units.Hertz) float64 {
	lambda := f.Wavelength()
	if d <= 0 || lambda <= 0 {
		return 0
	}
	g := float64(lambda) / (4 * math.Pi * float64(d))
	rx := float64(p.Milliwatts()) * g * g
	return math.Sqrt(rx)
}
