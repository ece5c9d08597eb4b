package tag

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The exactness oracle for the cached step factors: the circuit step that
// called math.Exp on every sample, kept verbatim (renamed with a ref
// prefix) over the same exported fields. Circuit.Step must reproduce it
// bit for bit, because the downlink figures and the ablation rest on it.

type refCircuit struct {
	Circuit
}

func (c *refCircuit) Step(input float64, dt float64) bool {
	if input < 0 {
		input = 0
	}
	if input > c.env {
		c.env += (input - c.env) * rcStep(dt, c.ChargeTime)
	} else {
		c.env += (input - c.env) * rcStep(dt, c.DischargeTime)
	}
	if c.env > c.peak {
		c.peak = c.env
	} else {
		c.peak *= math.Exp(-dt / c.PeakDecay)
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

// TestCircuitMatchesReference drives a circuit and the reference with the
// same random envelope (bursts and silences, including negative inputs)
// and, between segments, changes dt or one of the time constants, which
// must invalidate the cached factors.
func TestCircuitMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		got := DefaultCircuit(rng.New(seed))
		ref := &refCircuit{*DefaultCircuit(rng.New(seed))}
		if seed%2 == 0 {
			// The ablation's fixed threshold.
			got.FixedThreshold, ref.FixedThreshold = 0.02, 0.02
		}
		in := rng.New(100 + seed)
		step := dt
		for seg := 0; seg < 40; seg++ {
			switch seg % 5 {
			case 1:
				step = dt * (0.5 + in.Float64())
			case 2:
				v := 5e-6 + 40e-6*in.Float64()
				got.ChargeTime, ref.ChargeTime = v, v
			case 3:
				v := 5e-6 + 40e-6*in.Float64()
				got.DischargeTime, ref.DischargeTime = v, v
			case 4:
				v := 1e-3 + 30e-3*in.Float64()
				got.PeakDecay, ref.PeakDecay = v, v
			}
			amp := 0.0
			if in.Bool() {
				amp = 0.05 * in.Float64()
			}
			for i := 0; i < 300; i++ {
				x := amp * (1 + 0.1*in.Gaussian(0, 1))
				g, w := got.Step(x, step), ref.Step(x, step)
				if g != w || math.Float64bits(got.env) != math.Float64bits(ref.env) ||
					math.Float64bits(got.peak) != math.Float64bits(ref.peak) {
					t.Fatalf("seed %d segment %d sample %d: out/env/peak = %v/%v/%v, reference %v/%v/%v",
						seed, seg, i, g, got.env, got.peak, w, ref.env, ref.peak)
				}
			}
		}
	}
}
