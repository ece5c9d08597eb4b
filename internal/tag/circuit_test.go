package tag

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/wifi"
)

// noiselessCircuit returns a circuit with noise disabled for deterministic
// behavioural tests.
func noiselessCircuit() *Circuit {
	c := DefaultCircuit(rng.New(1))
	c.NoiseRMS = 0
	return c
}

const dt = 1.0 / wifi.EnvelopeSampleRate

// feed pushes n samples of constant amplitude and returns the final
// comparator output.
func feed(c *Circuit, amp float64, n int) bool {
	out := false
	for i := 0; i < n; i++ {
		out = c.Step(amp, dt)
	}
	return out
}

func TestCircuitDetectsStrongSignal(t *testing.T) {
	c := noiselessCircuit()
	// 50 µs of signal at amplitude 1 (far above MinThreshold).
	if got := feed(c, 1, 200); !got {
		t.Error("comparator should be high during a strong packet")
	}
}

func TestCircuitSilenceAfterSignalGoesLow(t *testing.T) {
	c := noiselessCircuit()
	feed(c, 1, 200)
	// After 50 µs of silence, the envelope has discharged (τ=6 µs) but
	// the peak hold keeps the threshold up: output must be low.
	if got := feed(c, 0, 200); got {
		t.Error("comparator should be low mid-silence")
	}
}

func TestCircuitIgnoresWeakNoiseFloor(t *testing.T) {
	c := noiselessCircuit()
	// Inputs below MinThreshold never trigger.
	if got := feed(c, c.MinThreshold*0.8, 1000); got {
		t.Error("sub-threshold input should not trigger the comparator")
	}
}

func TestCircuitPacketGapResolution(t *testing.T) {
	// A 50 µs packet / 50 µs gap train should produce alternating
	// comparator levels at bit midpoints — the §4.2 claim that the
	// receiver resolves 50 µs packets.
	c := noiselessCircuit()
	samplesPerBit := 200 // 50 µs at 4 MHz
	var outs []bool
	for bit := 0; bit < 10; bit++ {
		amp := 0.0
		if bit%2 == 0 {
			amp = 1
		}
		for i := 0; i < samplesPerBit; i++ {
			o := c.Step(amp, dt)
			if i == samplesPerBit/2 {
				outs = append(outs, o)
			}
		}
	}
	for i, o := range outs {
		want := i%2 == 0
		if o != want {
			t.Errorf("bit %d comparator = %v, want %v", i, o, want)
		}
	}
}

func TestCircuitThresholdAdaptsToLevel(t *testing.T) {
	// The peak/2 threshold must track the signal level: after a strong
	// signal, a signal at 30% of the old level reads low until the peak
	// bleeds down, then reads high again — the "resetting" behaviour.
	c := noiselessCircuit()
	feed(c, 1, 400)
	if got := feed(c, 0.3, 100); got {
		t.Error("30% signal right after a strong one should be under threshold")
	}
	// Bleed for 3 peak-decay constants with the weak signal present.
	n := int(3 * c.PeakDecay / dt)
	if got := feed(c, 0.3, n); !got {
		t.Error("threshold should adapt down to the new level")
	}
}

func TestCircuitChargeTimeLimitsShortPackets(t *testing.T) {
	// The envelope mid-packet level should be visibly lower for a 25 µs
	// packet than for 200 µs, which is what makes shorter packets lose
	// range.
	mid := func(samples int) float64 {
		c := noiselessCircuit()
		for i := 0; i < samples/2; i++ {
			c.Step(1, dt)
		}
		return c.env
	}
	short := mid(100) // 25 µs
	long := mid(800)  // 200 µs
	if short >= long {
		t.Errorf("short packet envelope %v should charge less than long %v", short, long)
	}
	if long < 0.9 {
		t.Errorf("long packet should charge nearly fully, got %v", long)
	}
}

func TestCircuitReset(t *testing.T) {
	c := noiselessCircuit()
	feed(c, 1, 500)
	c.Reset()
	if c.env != 0 || c.peak != 0 {
		t.Error("Reset should clear analog state")
	}
}

func TestRcStepGuards(t *testing.T) {
	if got := rcStep(1e-6, 0); got != 1 {
		t.Errorf("zero tau should respond instantly, got %v", got)
	}
	if got := rcStep(1e-6, 12e-6); got <= 0 || got >= 1 {
		t.Errorf("rcStep out of range: %v", got)
	}
}

func TestReceivedEnvelopeScale(t *testing.T) {
	f := 2.437 * units.GHz
	// +16 dBm at 2.13 m: free-space received power ≈ -30.7 dBm, so the
	// normalized envelope is sqrt(10^(-3.07)) ≈ 0.029.
	got := ReceivedEnvelopeScale(16, 2.13, f)
	if math.Abs(got-0.029) > 0.003 {
		t.Errorf("envelope scale at 2.13 m = %v, want ~0.029", got)
	}
	// Falls as 1/d.
	near := ReceivedEnvelopeScale(16, 1, f)
	far := ReceivedEnvelopeScale(16, 2, f)
	if math.Abs(near/far-2) > 1e-9 {
		t.Errorf("envelope should fall as 1/d: ratio %v", near/far)
	}
	if ReceivedEnvelopeScale(16, 0, f) != 0 {
		t.Error("zero distance should return 0")
	}
}

func TestCircuitNoiseSensitivityOrdering(t *testing.T) {
	// With the default noise, a strong (near) signal should produce far
	// fewer comparator errors than a weak (far) one.
	errorsAt := func(scale float64, seed int64) int {
		c := DefaultCircuit(rng.New(seed))
		errs := 0
		samplesPerBit := 200
		for bit := 0; bit < 200; bit++ {
			amp := 0.0
			if bit%2 == 0 {
				amp = scale
			}
			for i := 0; i < samplesPerBit; i++ {
				o := c.Step(amp*1.0, dt)
				if i == samplesPerBit/2 && o != (bit%2 == 0) {
					errs++
				}
			}
		}
		return errs
	}
	nearErrs := errorsAt(ReceivedEnvelopeScale(16, 0.5, 2.437*units.GHz), 7)
	farErrs := errorsAt(ReceivedEnvelopeScale(16, 4.0, 2.437*units.GHz), 7)
	if nearErrs >= farErrs {
		t.Errorf("errors near (%d) should be below errors far (%d)", nearErrs, farErrs)
	}
	if nearErrs > 2 {
		t.Errorf("50 cm link should be nearly error free, got %d/200", nearErrs)
	}
}

func TestCircuitNonPositivePeakDecayBleedsAtOnce(t *testing.T) {
	for _, decay := range []float64{0, -20e-3} {
		c := noiselessCircuit()
		c.PeakDecay = decay
		feed(c, 1, 400)
		held := c.peak
		// Once the input falls, the peak can only follow the envelope
		// down: a non-positive bleed constant empties it at once rather
		// than growing it by exp(-dt/PeakDecay) > 1.
		feed(c, 0, 400)
		if c.peak > held || c.peak > c.env || math.IsNaN(c.peak) {
			t.Errorf("PeakDecay %v: held peak %v went to %v (envelope %v)", decay, held, c.peak, c.env)
		}
		if got := feed(c, 0.5, 400); !got {
			t.Errorf("PeakDecay %v: comparator should follow a new level", decay)
		}
	}
}
