package radio

import (
	"math"
	"math/cmplx"

	"repro/internal/rng"
	"repro/internal/units"
)

// Multipath models a frequency-selective fading channel as a tap delay line
// with an exponential power-delay profile. Its frequency response is
// evaluated on the fixed set of subcarrier offsets it is built for, and the
// taps evolve in time as an AR(1) (Gauss-Markov) process so the channel
// drifts slowly, as an indoor environment with people moving does.
type Multipath struct {
	taps   []complex128
	delays []float64 // seconds
	// sd[i] is sqrt(p_i/2) for tap i's stationary power p_i: the per-axis
	// standard deviation its draws take from rng's ComplexGaussianSD.
	sd        []float64
	coherence float64 // seconds; time for correlation to fall to 1/e
	lastTime  float64 // seconds of last evolution
	stream    *rng.Stream
	// los holds the optional fixed line-of-sight component of tap 0.
	los complex128
	// phasors[k*len(taps)+i] is tap i's delay phasor e^(-j2π·f_k·τ_i) at
	// the k-th offset. Neither the offsets nor the delays change after
	// construction, so the table is built once and Response only
	// multiplies and adds.
	phasors []complex128
}

// MultipathConfig configures a Multipath channel.
type MultipathConfig struct {
	// Taps is the number of scattered paths (>= 1).
	Taps int
	// DelaySpread is the RMS delay spread; indoor offices measure
	// 30–100 ns.
	DelaySpread float64 // seconds
	// RiceK is the Rician K-factor (linear power ratio of the LOS
	// component to the scattered power). 0 means pure Rayleigh.
	RiceK float64
	// CoherenceTime is the 1/e temporal decorrelation time of the taps.
	// Zero disables temporal evolution (a static channel).
	CoherenceTime float64 // seconds
}

// DefaultMultipathConfig returns parameters representative of the paper's
// office environment.
func DefaultMultipathConfig() MultipathConfig {
	return MultipathConfig{
		Taps:          8,
		DelaySpread:   60e-9,
		RiceK:         4,
		CoherenceTime: 300,
	}
}

// NewMultipath draws a random channel realization from the config using the
// given stream and tabulates its tap phasors at the given subcarrier
// offsets, which Response then indexes. Total average power is normalized
// to 1 (E[|H(f)|²] = 1), so large-scale path gain is applied separately.
func NewMultipath(cfg MultipathConfig, offsets []units.Hertz, stream *rng.Stream) *Multipath {
	n := cfg.Taps
	if n < 1 {
		n = 1
	}
	m := &Multipath{
		taps:      make([]complex128, n),
		delays:    make([]float64, n),
		coherence: cfg.CoherenceTime,
		stream:    stream,
	}
	// Exponential power delay profile over taps spaced at half the delay
	// spread, which yields an RMS delay spread close to cfg.DelaySpread.
	spacing := cfg.DelaySpread / 2
	if spacing <= 0 {
		spacing = 1e-9
	}
	var totalScatter float64
	powers := make([]float64, n)
	for i := 0; i < n; i++ {
		m.delays[i] = float64(i) * spacing
		if cfg.DelaySpread > 0 {
			powers[i] = math.Exp(-m.delays[i] / cfg.DelaySpread)
		} else {
			powers[i] = 1
		}
		totalScatter += powers[i]
	}
	// Split unit power between LOS and scatter according to K.
	scatterPower := 1.0
	losPower := 0.0
	if cfg.RiceK > 0 {
		losPower = cfg.RiceK / (1 + cfg.RiceK)
		scatterPower = 1 / (1 + cfg.RiceK)
	}
	m.sd = make([]float64, n)
	for i := 0; i < n; i++ {
		m.sd[i] = math.Sqrt(powers[i] / totalScatter * scatterPower / 2)
		m.taps[i] = stream.ComplexGaussianSD(m.sd[i])
	}
	if losPower > 0 {
		phase := stream.Float64() * 2 * math.Pi
		m.los = cmplx.Rect(math.Sqrt(losPower), phase)
	}
	m.phasors = make([]complex128, len(offsets)*n)
	for k, f := range offsets {
		for i := range m.delays {
			phase := -2 * math.Pi * float64(f) * m.delays[i]
			m.phasors[k*n+i] = cmplx.Rect(1, phase)
		}
	}
	return m
}

// EvolveTo advances the channel's scattered taps to absolute time t seconds
// using a Gauss-Markov innovation whose correlation decays with the
// coherence time. Times earlier than the last evolution are ignored.
func (m *Multipath) EvolveTo(t float64) {
	var ar arStep
	m.evolveTo(t, &ar)
}

// evolveTo is EvolveTo with the step factors taken from ar, which
// computes them only when dt or the coherence time differs from its last
// call. Channels evolved to the same time share one ar.
func (m *Multipath) evolveTo(t float64, ar *arStep) {
	if m.coherence <= 0 || t <= m.lastTime {
		if t > m.lastTime {
			m.lastTime = t
		}
		return
	}
	dt := t - m.lastTime
	m.lastTime = t
	rho, innov := ar.factors(dt, m.coherence)
	for i, tap := range m.taps {
		// The innovation variance matches the tap's stationary power so
		// the power-delay profile is invariant under evolution.
		m.taps[i] = tap*complex(rho, 0) + m.stream.ComplexGaussianSD(m.sd[i])*complex(innov, 0)
	}
}

// arStep memoizes the Gauss-Markov step factors rho = exp(-dt/coherence)
// and innov = sqrt(1-rho²) for the last (dt, coherence) pair. Its zero
// value matches no evolution, whose dt and coherence are positive.
type arStep struct {
	dt, coherence, rho, innov float64
}

func (a *arStep) factors(dt, coherence float64) (rho, innov float64) {
	if dt != a.dt || coherence != a.coherence {
		rho = math.Exp(-dt / coherence)
		*a = arStep{dt: dt, coherence: coherence, rho: rho, innov: math.Sqrt(1 - rho*rho)}
	}
	return a.rho, a.innov
}

// Response returns the complex channel gain at the k-th subcarrier offset
// the channel was built for.
func (m *Multipath) Response(k int) complex128 {
	n := len(m.taps)
	phasors := m.phasors[k*n : k*n+n]
	h := m.los
	for i, tap := range m.taps {
		h += tap * phasors[i]
	}
	return h
}

// responses writes Response(k) for every subcarrier offset k into dst,
// which holds one entry per offset. It walks the taps once for every four
// offsets, carrying four independent sums; each adds the same terms in
// the same order as Response, so every value is bit-identical to it.
func (m *Multipath) responses(dst []complex128) {
	taps := m.taps
	n := len(taps)
	k := 0
	for ; k+4 <= len(dst); k += 4 {
		p0 := m.phasors[k*n:][:n]
		p1 := m.phasors[(k+1)*n:][:n]
		p2 := m.phasors[(k+2)*n:][:n]
		p3 := m.phasors[(k+3)*n:][:n]
		h0, h1, h2, h3 := m.los, m.los, m.los, m.los
		for i, tap := range taps {
			h0 += tap * p0[i]
			h1 += tap * p1[i]
			h2 += tap * p2[i]
			h3 += tap * p3[i]
		}
		dst[k], dst[k+1], dst[k+2], dst[k+3] = h0, h1, h2, h3
	}
	for ; k < len(dst); k++ {
		dst[k] = m.Response(k)
	}
}
