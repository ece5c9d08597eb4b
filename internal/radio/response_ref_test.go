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

// refTapPowers is NewMultipath's stationary tap power computation, which
// the reference draws below take their variances from.
func refTapPowers(cfg MultipathConfig) []float64 {
	n := cfg.Taps
	if n < 1 {
		n = 1
	}
	spacing := cfg.DelaySpread / 2
	if spacing <= 0 {
		spacing = 1e-9
	}
	var totalScatter float64
	powers := make([]float64, n)
	for i := range powers {
		if cfg.DelaySpread > 0 {
			powers[i] = math.Exp(-float64(i) * spacing / cfg.DelaySpread)
		} else {
			powers[i] = 1
		}
		totalScatter += powers[i]
	}
	scatterPower := 1.0
	if cfg.RiceK > 0 {
		scatterPower = 1 / (1 + cfg.RiceK)
	}
	for i := range powers {
		powers[i] = powers[i] / totalScatter * scatterPower
	}
	return powers
}

// refEvolveTo is the per-Multipath evolution: its own exp and sqrt on
// every call, and ComplexGaussian(power) for each innovation.
func refEvolveTo(m *Multipath, powers []float64, t float64) {
	if m.coherence <= 0 || t <= m.lastTime {
		if t > m.lastTime {
			m.lastTime = t
		}
		return
	}
	dt := t - m.lastTime
	m.lastTime = t
	rho := math.Exp(-dt / m.coherence)
	innov := math.Sqrt(1 - rho*rho)
	for i, tap := range m.taps {
		m.taps[i] = tap*complex(rho, 0) + m.stream.ComplexGaussian(powers[i])*complex(innov, 0)
	}
}

// TestEvolutionMatchesReference evolves one channel through Observe,
// whose paths share one set of step factors, and a twin path by path
// through refEvolveTo, and requires identical taps after every packet.
// It also checks that each tap's cached sd is ComplexGaussian's
// sqrt(power/2).
func TestEvolutionMatchesReference(t *testing.T) {
	for _, oc := range oracleConfigs() {
		build := func() *MultiChannel {
			c, err := NewMultiChannel(oc.cfg, Geometry{HelperToTag: 3}, rng.New(47))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []units.Meters{0.05, 0.3} {
				if _, err := c.AddTag(d); err != nil {
					t.Fatal(err)
				}
			}
			return c
		}
		got, ref := build(), build()
		direct := refTapPowers(oc.cfg.Multipath)
		trCfg := oc.cfg.Multipath
		trCfg.RiceK = 10
		tagRead := refTapPowers(trCfg)
		type pair struct {
			id       string
			got, ref *Multipath
			powers   []float64
		}
		var pairs []pair
		for a := range got.direct {
			pairs = append(pairs, pair{fmt.Sprintf("direct-%d", a), got.direct[a], ref.direct[a], direct})
		}
		for i := range got.tags {
			pairs = append(pairs, pair{fmt.Sprintf("tag%d-helptag", i), got.tags[i].helpTag, ref.tags[i].helpTag, direct})
			for a := range got.tags[i].tagRead {
				pairs = append(pairs, pair{fmt.Sprintf("tag%d-tagread-%d", i, a), got.tags[i].tagRead[a], ref.tags[i].tagRead[a], tagRead})
			}
		}
		for _, p := range pairs {
			for i, sd := range p.got.sd {
				if sd != math.Sqrt(p.powers[i]/2) {
					t.Fatalf("%s/%s tap %d: sd %v, want sqrt(%v/2)", oc.name, p.id, i, sd, p.powers[i])
				}
			}
		}
		reflecting := []bool{true, false}
		var dst [][]complex128
		at := 0.0
		for step := 0; step < 50; step++ {
			// Packet spacings vary, some repeat, and t=at twice is a no-op.
			at += []float64{1e-3, 1e-3, 0, 0.37, 2.5e-4}[step%5]
			var err error
			if dst, err = got.Observe(at, reflecting, dst); err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				refEvolveTo(p.ref, p.powers, at)
				for i := range p.ref.taps {
					if !sameBits(p.got.taps[i], p.ref.taps[i]) {
						t.Fatalf("%s/%s at t=%v, tap %d: %v, reference %v", oc.name, p.id, at, i, p.got.taps[i], p.ref.taps[i])
					}
				}
			}
		}
	}
}
