package radio

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// The exactness oracle for the tabulated phasors: the per-call response
// and the composite observation the table replaced, kept verbatim (renamed
// with a ref prefix). Multipath.Response and MultiChannel.Observe must
// reproduce them bit for bit, because every eval golden and pinned
// benchmark digest rests on these numerics.

func refResponse(m *Multipath, offset units.Hertz) complex128 {
	h := m.los
	for i, tap := range m.taps {
		phase := -2 * math.Pi * float64(offset) * m.delays[i]
		h += tap * cmplx.Rect(1, phase)
	}
	return h
}

// refObserve evaluates the composite channel with refResponse at the
// channel's current tap state; it does not evolve the taps.
func refObserve(c *MultiChannel, reflecting []bool) [][]complex128 {
	out := make([][]complex128, c.antennas)
	for a := 0; a < c.antennas; a++ {
		row := make([]complex128, len(c.offsets))
		for k, f := range c.offsets {
			h := refResponse(c.direct[a], f) * complex(c.ampDir, 0)
			for i, tp := range c.tags {
				if !reflecting[i] {
					continue
				}
				h += refResponse(tp.helpTag, f) * refResponse(tp.tagRead[a], f) * complex(tp.ampBack, 0)
			}
			row[k] = h * complex(c.scale, 0)
		}
		out[a] = row
	}
	return out
}

// sameBits reports whether two complex values are identical in their
// IEEE-754 bits, real and imaginary parts alike.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// oracleConfigs are the channel shapes the oracle covers: the paper's
// Intel 5300 reader (whose tag→reader hops use the RiceK=10 config), and a
// non-default sub-channel count, spacing and tap profile.
func oracleConfigs() []oracleCase {
	odd := DefaultChannelConfig()
	odd.Subchannels = 56
	odd.SubchannelSpacing = 312.5 * units.KHz
	odd.Antennas = 2
	odd.Multipath = MultipathConfig{Taps: 13, DelaySpread: 95e-9, RiceK: 0, CoherenceTime: 2}
	return []oracleCase{{"default", DefaultChannelConfig()}, {"odd", odd}}
}

type oracleCase struct {
	name string
	cfg  ChannelConfig
}

func TestResponseMatchesReference(t *testing.T) {
	for _, oc := range oracleConfigs() {
		name, cfg := oc.name, oc.cfg
		c, err := NewMultiChannel(cfg, Geometry{HelperToTag: 3}, rng.New(41))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []units.Meters{0.05, 0.3} {
			if _, err := c.AddTag(d); err != nil {
				t.Fatal(err)
			}
		}
		// The direct and helper→tag paths use cfg.Multipath; the
		// tag→reader paths use its RiceK=10 variant.
		type path struct {
			id string
			m  *Multipath
		}
		var paths []path
		for a, m := range c.direct {
			paths = append(paths, path{fmt.Sprintf("%s/direct-%d", name, a), m})
		}
		for i, tp := range c.tags {
			paths = append(paths, path{fmt.Sprintf("%s/tag%d-helptag", name, i), tp.helpTag})
			for a, m := range tp.tagRead {
				paths = append(paths, path{fmt.Sprintf("%s/tag%d-tagread-%d", name, i, a), m})
			}
		}
		for _, at := range []float64{0, 0.37, 5, 250} {
			for _, p := range paths {
				p.m.EvolveTo(at)
				for k, f := range c.offsets {
					if got, want := p.m.Response(k), refResponse(p.m, f); !sameBits(got, want) {
						t.Fatalf("%s at t=%v, subchannel %d: Response = %v, reference %v", p.id, at, k, got, want)
					}
				}
			}
		}
	}
}

func TestObserveMatchesReference(t *testing.T) {
	states := [][]bool{{false, false}, {true, false}, {false, true}, {true, true}}
	for _, oc := range oracleConfigs() {
		name, cfg := oc.name, oc.cfg
		c, err := NewMultiChannel(cfg, Geometry{HelperToTag: 3, HelperWalls: 1}, rng.New(43))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []units.Meters{0.05, 0.65} {
			if _, err := c.AddTag(d); err != nil {
				t.Fatal(err)
			}
		}
		var dst [][]complex128
		for step, at := range []float64{0, 1e-3, 0.5, 0.5, 3, 40} {
			reflecting := states[step%len(states)]
			dst, err = c.Observe(at, reflecting, dst)
			if err != nil {
				t.Fatal(err)
			}
			want := refObserve(c, reflecting)
			for a := range want {
				for k := range want[a] {
					if !sameBits(dst[a][k], want[a][k]) {
						t.Fatalf("%s at t=%v, states %v, [%d][%d]: Observe = %v, reference %v",
							name, at, reflecting, a, k, dst[a][k], want[a][k])
					}
				}
			}
		}
	}
}
