package radio

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// TestAdvanceMatchesObserve is the draw-parity oracle for Advance: on two
// channels built from one seed, advancing one through a packet and
// observing the other must leave them where the next Observe reads the
// same channel bit for bit. Each case skips a different pattern of
// packets, so an Advance that drew one innovation too few or too many, or
// evolved a path out of turn, shows as a difference.
func TestAdvanceMatchesObserve(t *testing.T) {
	skips := [][]bool{
		{true, false},
		{true, true, true, false},
		{false, true, false, false, true},
	}
	for _, oc := range oracleConfigs() {
		for si, skip := range skips {
			var chans [2]*MultiChannel
			for i := range chans {
				c, err := NewMultiChannel(oc.cfg, Geometry{HelperToTag: 3}, rng.New(47))
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range []units.Meters{0.05, 0.3} {
					if _, err := c.AddTag(d); err != nil {
						t.Fatal(err)
					}
				}
				chans[i] = c
			}
			observed, advanced := chans[0], chans[1]
			reflecting := []bool{true, false}
			var hObs, hAdv [][]complex128
			var err error
			for step := 0; step < 40; step++ {
				at := float64(step) * 1.3e-3
				reflecting[step%2] = !reflecting[step%2]
				if hObs, err = observed.Observe(at, reflecting, hObs); err != nil {
					t.Fatal(err)
				}
				if skip[step%len(skip)] {
					advanced.Advance(at)
					continue
				}
				if hAdv, err = advanced.Observe(at, reflecting, hAdv); err != nil {
					t.Fatal(err)
				}
				for a := range hObs {
					for k := range hObs[a] {
						if !sameBits(hAdv[a][k], hObs[a][k]) {
							t.Fatalf("%s skip %d step %d: H[%d][%d] = %v after Advance, %v after Observe",
								oc.name, si, step, a, k, hAdv[a][k], hObs[a][k])
						}
					}
				}
			}
		}
	}
}
